package attack

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/defense"
	"repro/internal/event"
)

// The scenario spec layer: every attack in the corpus is a declarative
// Scenario — a speculative gadget the victim runs on a microarchitectural
// channel that transmits the secret. The gadget implies the mistraining
// strategy; the channel's row in the channel table holds everything else:
// the gadgets that can drive it, the receiver's decision rule, where the
// victim runs, the candidate and stride bounds, and the receiver itself.
// The interpreter (run.go) composes the shared victim shell, train/fire
// machinery and the row's receiver, so the six hand-built attacks and
// every generated variant share one implementation.

// GadgetKind selects the victim's speculative gadget body.
type GadgetKind uint8

// Gadget bodies.
const (
	// GadgetIndexLoad is the Spectre v1 shape: a bounds-checked load whose
	// out-of-bounds value indexes a probe-array load.
	GadgetIndexLoad GadgetKind = iota
	// GadgetSetFill fills four ways of a secret-selected L2 set from the
	// victim's private buffer (inclusion-policy attacks).
	GadgetSetFill
	// GadgetStream streams four consecutive lines of a secret-selected
	// region, training the stride prefetcher.
	GadgetStream
	// GadgetJumpTable jumps indirectly to a secret-selected code block
	// (Spectre v2 / instruction-cache transmission).
	GadgetJumpTable
	// GadgetJumpLoad jumps indirectly to a code block that loads one
	// secret-selected probe line (Spectre v2 with a data-cache channel).
	GadgetJumpLoad
	gadgetKinds // count sentinel
)

var gadgetNames = [...]string{"index-load", "set-fill", "stream", "jump-table", "jump-load"}

func (g GadgetKind) String() string {
	if int(g) < len(gadgetNames) {
		return gadgetNames[g]
	}
	return "unknown"
}

// indirect reports whether the gadget jumps to a secret-selected code
// block. An indirect gadget is mistrained through the BTB via the benign
// jump target (Spectre v2), every other one through the bounds-check
// branch with in-bounds inputs (Spectre v1).
func (g GadgetKind) indirect() bool { return g == GadgetJumpTable || g == GadgetJumpLoad }

// maxJumpTargets bounds the scored code blocks of an indirect gadget.
const maxJumpTargets = 8

// ChannelKind selects the transmission channel: one row of the channel
// table.
type ChannelKind uint8

// Transmission channels.
const (
	// ChannelProbeReload: evict the shared probe lines, fire, context-
	// switch in and reload each candidate (fast = transmitted).
	ChannelProbeReload ChannelKind = iota
	// ChannelInclusion: prime candidate L2 sets cross-core and watch for
	// back-invalidation evictions (slow reload = secret set).
	ChannelInclusion
	// ChannelCoherenceStore: hold candidate lines exclusive, fire, and
	// time stores (the downgraded line pays an upgrade penalty) —
	// MeltdownPrime-style coherence prime+probe.
	ChannelCoherenceStore
	// ChannelCoherenceLoad: fire, then time cold loads of the candidates
	// (the line held exclusively in the victim's filter pays a downgrade).
	ChannelCoherenceLoad
	// ChannelPrefetchNext: time the line beyond the speculatively streamed
	// window in each candidate region (only the prefetcher fetches it).
	ChannelPrefetchNext
	// ChannelIfetch: time an instruction fetch of each candidate code
	// block after a domain switch.
	ChannelIfetch
	channelKinds
)

// channel is one row of the channel table.
type channel struct {
	name string
	// gadgets are the gadget bodies that can transmit through the channel.
	gadgets []GadgetKind
	// slowestDelta selects the decision rule: the slowest candidate leaks
	// and must beat the runner-up by MinDelta cycles (scoreDelta). Without
	// it the fastest candidate leaks when it is a clear outlier below the
	// median (score).
	slowestDelta bool
	// sameCore puts the victim on the receiver's core, which times its
	// probes after a protection-domain switch (flush+reload across a
	// context switch); otherwise the victim gets a core of its own and the
	// receiver observes it cross-core.
	sameCore bool
	// cands and strides bound Candidates and Stride, inclusive.
	cands   [2]int
	strides [2]uint64
	// recv primes the channel and fires the victim, and returns the probe
	// that times every candidate.
	recv func(*trial) func() []event.Cycle
}

// channels is the channel table.
var channels = [channelKinds]channel{
	ChannelProbeReload: {name: "probe-reload", gadgets: []GadgetKind{GadgetIndexLoad, GadgetJumpLoad},
		sameCore: true, cands: [2]int{2, 15}, strides: [2]uint64{128, probeSegBytes}, recv: recvProbeReload},
	// The inclusion receiver primes exactly two sets; the gadget's value*64
	// selects the L2 set.
	ChannelInclusion: {name: "inclusion", gadgets: []GadgetKind{GadgetSetFill},
		slowestDelta: true, cands: [2]int{2, 2}, strides: [2]uint64{64, 64}, recv: recvInclusion},
	ChannelCoherenceStore: {name: "coherence-store", gadgets: []GadgetKind{GadgetIndexLoad},
		slowestDelta: true, cands: [2]int{2, 15}, strides: [2]uint64{128, probeSegBytes}, recv: recvCoherenceStore},
	ChannelCoherenceLoad: {name: "coherence-load", gadgets: []GadgetKind{GadgetIndexLoad},
		slowestDelta: true, cands: [2]int{2, 15}, strides: [2]uint64{128, probeSegBytes}, recv: recvCoherenceLoad},
	// The gadget streams 4 lines and the receiver probes line 4: regions
	// below 512B would overlap their neighbours.
	ChannelPrefetchNext: {name: "prefetch-next", gadgets: []GadgetKind{GadgetStream},
		cands: [2]int{2, 15}, strides: [2]uint64{512, probeSegBytes}, recv: recvPrefetchNext},
	ChannelIfetch: {name: "ifetch", gadgets: []GadgetKind{GadgetJumpTable},
		sameCore: true, cands: [2]int{2, maxJumpTargets}, strides: [2]uint64{codeBlockStride, codeBlockStride}, recv: recvIfetch},
}

func (c ChannelKind) String() string {
	if c < channelKinds {
		return channels[c].name
	}
	return "unknown"
}

// Scenario is one declarative transient-leak scenario: a gadget on a
// channel. The zero value is invalid; construct scenarios from the
// Scenarios registry, or literals validated with Validate.
type Scenario struct {
	Name    string
	Gadget  GadgetKind
	Channel ChannelKind
	// Candidates is the number of scored secret values; the secret is in
	// [0, Candidates).
	Candidates int
	// Stride is the channel-coding stride in bytes: probe-line spacing for
	// data channels, region size for the prefetch channel, 64 for the L2
	// set-select shift, 1024 for code blocks.
	Stride uint64
	// SecretDist pads the victim layout so the secret cell sits this many
	// cache lines beyond array1's end (Spectre v1 index sweeps; 0 is the
	// classic adjacent cell).
	SecretDist int
	// MinDelta is the slowest-delta threshold in cycles: non-zero exactly
	// when the channel's decision rule is slowest-delta.
	MinDelta event.Cycle
	// Secret is the canonical secret value for matrix runs.
	Secret int
}

// probeSegBytes is the size of the shared probe segment in the victim
// layout; every channel's coding must fit inside it.
const probeSegBytes = 32 * 1024

// codeBlockStride is the spacing of the indirect-jump target blocks.
const codeBlockStride = 1024

// benignIndex is the candidate index training inputs transmit through:
// benignValue (15, matching the hand-built attacks) when that line still
// fits the probe segment and is outside the scored range, else the first
// line past the scored candidates.
func (s Scenario) benignIndex() int {
	if benignValue >= s.Candidates && (benignValue+1)*int(s.Stride) <= probeSegBytes {
		return benignValue
	}
	return s.Candidates
}

// Validate checks the scenario against its channel's row: the gadget must
// transmit through the channel, MinDelta must match the decision rule, and
// the candidates and stride must fit the row's bounds and the probe
// segment.
func (s Scenario) Validate() error {
	if s.Name == "" || len(s.Name) > 64 {
		return fmt.Errorf("attack: scenario name %q must be 1..64 chars", s.Name)
	}
	for _, r := range s.Name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return fmt.Errorf("attack: scenario name %q: only [a-z0-9-] allowed", s.Name)
		}
	}
	if s.Gadget >= gadgetKinds {
		return fmt.Errorf("attack: scenario %s: unknown gadget %d", s.Name, s.Gadget)
	}
	if s.Channel >= channelKinds {
		return fmt.Errorf("attack: scenario %s: unknown channel %d", s.Name, s.Channel)
	}
	ch := &channels[s.Channel]
	if !slices.Contains(ch.gadgets, s.Gadget) {
		return fmt.Errorf("attack: scenario %s: gadget %s cannot transmit through channel %s",
			s.Name, s.Gadget, ch.name)
	}
	if ch.slowestDelta && s.MinDelta == 0 {
		return fmt.Errorf("attack: scenario %s: channel %s needs MinDelta > 0", s.Name, ch.name)
	}
	if !ch.slowestDelta && s.MinDelta != 0 {
		return fmt.Errorf("attack: scenario %s: channel %s takes no MinDelta", s.Name, ch.name)
	}
	if s.Secret < 0 || s.Secret >= s.Candidates {
		return fmt.Errorf("attack: scenario %s: secret %d outside [0,%d)", s.Name, s.Secret, s.Candidates)
	}
	if s.SecretDist < 0 || s.SecretDist > 64 {
		return fmt.Errorf("attack: scenario %s: secret distance %d outside [0,64]", s.Name, s.SecretDist)
	}
	if s.Stride == 0 || bits.OnesCount64(s.Stride) != 1 {
		return fmt.Errorf("attack: scenario %s: stride %d must be a power of two", s.Name, s.Stride)
	}
	if s.Candidates < ch.cands[0] || s.Candidates > ch.cands[1] {
		return fmt.Errorf("attack: scenario %s: %s candidates %d outside [%d,%d]",
			s.Name, ch.name, s.Candidates, ch.cands[0], ch.cands[1])
	}
	if s.Stride < ch.strides[0] || s.Stride > ch.strides[1] {
		return fmt.Errorf("attack: scenario %s: %s stride %d outside [%d,%d]",
			s.Name, ch.name, s.Stride, ch.strides[0], ch.strides[1])
	}
	if (s.benignIndex()+1)*int(s.Stride) > probeSegBytes {
		return fmt.Errorf("attack: scenario %s: %d candidates at stride %d overflow the %d-byte probe segment",
			s.Name, s.Candidates, s.Stride, probeSegBytes)
	}
	if s.Gadget.indirect() && s.Candidates > maxJumpTargets {
		return fmt.Errorf("attack: scenario %s: %s candidates %d above %d", s.Name, s.Gadget, s.Candidates, maxJumpTargets)
	}
	return nil
}

// Encode renders the scenario in its canonical wire form, the cache
// identity of a security-matrix cell:
//
//	scenario/v1|name=N|gadget=G|train=T|chan=C|decide=D|cand=K|stride=S|dist=P|delta=M|secret=X
//
// The training T follows from the gadget and the decision rule D from the
// channel's row; both stay in the form so every cell key is unchanged.
// Distinct valid scenarios encode differently.
func (s Scenario) Encode() string {
	train, decide := "bounds-branch", "fastest-outlier"
	if s.Gadget.indirect() {
		train = "indirect-target"
	}
	if s.Channel < channelKinds && channels[s.Channel].slowestDelta {
		decide = "slowest-delta"
	}
	return fmt.Sprintf("scenario/v1|name=%s|gadget=%s|train=%s|chan=%s|decide=%s|cand=%d|stride=%d|dist=%d|delta=%d|secret=%d",
		s.Name, s.Gadget, train, s.Channel, decide, s.Candidates, s.Stride, s.SecretDist, s.MinDelta, s.Secret)
}

// Scenarios returns the attack corpus, sorted by name: the six hand-built
// attacks of the paper's evaluation expressed as specs, plus generated
// variants sweeping the taxonomy (v1 index distances and strides, v2
// indirect-jump mistraining with data and instruction channels, and
// MeltdownPrime-style multi-candidate coherence channels).
func Scenarios() []Scenario { return slices.Clone(corpus()) }

// corpus builds, validates and sorts the corpus once.
var corpus = sync.OnceValue(func() []Scenario {
	list := []Scenario{
		// The paper's six attacks.
		{Name: "spectre", Gadget: GadgetIndexLoad, Channel: ChannelProbeReload,
			Candidates: 15, Stride: 512, Secret: 11},
		{Name: "inclusion", Gadget: GadgetSetFill, Channel: ChannelInclusion,
			Candidates: 2, Stride: 64, MinDelta: 20, Secret: 1},
		{Name: "shareddata", Gadget: GadgetIndexLoad, Channel: ChannelCoherenceStore,
			Candidates: 2, Stride: 512, MinDelta: 8, Secret: 1},
		{Name: "filtercoherency", Gadget: GadgetIndexLoad, Channel: ChannelCoherenceLoad,
			Candidates: 2, Stride: 512, MinDelta: 8, Secret: 0},
		{Name: "prefetcher", Gadget: GadgetStream, Channel: ChannelPrefetchNext,
			Candidates: 4, Stride: 2048, Secret: 2},
		{Name: "icache", Gadget: GadgetJumpTable, Channel: ChannelIfetch,
			Candidates: 4, Stride: codeBlockStride, Secret: 3},

		// Spectre v1 index sweeps: the out-of-bounds index reaches a secret
		// cell 4 and 16 lines past the array.
		{Name: "spectre-far", Gadget: GadgetIndexLoad, Channel: ChannelProbeReload,
			Candidates: 15, Stride: 512, SecretDist: 4, Secret: 7},
		{Name: "spectre-deep", Gadget: GadgetIndexLoad, Channel: ChannelProbeReload,
			Candidates: 15, Stride: 512, SecretDist: 16, Secret: 13},
		// Page-stride probe coding (one candidate per 4KiB page).
		{Name: "spectre-wide", Gadget: GadgetIndexLoad, Channel: ChannelProbeReload,
			Candidates: 7, Stride: 4096, Secret: 5},

		// Spectre v2: indirect-jump mistraining with a data-cache channel.
		{Name: "btb-data", Gadget: GadgetJumpLoad, Channel: ChannelProbeReload,
			Candidates: 4, Stride: 512, Secret: 2},

		// MeltdownPrime-style multi-candidate coherence channels: prime
		// several lines, watch which one's coherence state the speculation
		// changed.
		{Name: "coherenceprime", Gadget: GadgetIndexLoad, Channel: ChannelCoherenceStore,
			Candidates: 4, Stride: 512, MinDelta: 8, Secret: 3},
		{Name: "filterprime", Gadget: GadgetIndexLoad, Channel: ChannelCoherenceLoad,
			Candidates: 4, Stride: 512, MinDelta: 8, Secret: 2},

		// Prefetcher channel with 1KiB regions.
		{Name: "prefetcher-near", Gadget: GadgetStream, Channel: ChannelPrefetchNext,
			Candidates: 4, Stride: 1024, Secret: 1},
	}
	for _, s := range list {
		if err := s.Validate(); err != nil {
			panic(err)
		}
	}
	slices.SortFunc(list, func(a, b Scenario) int { return strings.Compare(a.Name, b.Name) })
	return list
})

// ScenarioByName looks up a registry scenario.
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range corpus() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Run executes a scenario under a defense scheme with its canonical secret.
func Run(sc Scenario, sch defense.Scheme) Result {
	return RunSecret(sc, sch, sc.Secret)
}
