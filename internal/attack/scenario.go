package attack

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/defense"
	"repro/internal/event"
)

// The scenario spec layer: every attack in the corpus is described by a
// declarative Scenario — which speculative gadget the victim runs, how the
// attacker mistrains it, which microarchitectural channel transmits the
// secret, and which decision rule the receiver applies to its timings. The
// interpreter (run.go) composes the shared victim shell, train/fire
// machinery and per-channel receivers from the spec, so the six hand-built
// attacks and every generated variant share one implementation.

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

// TrainKind selects the mistraining strategy.
type TrainKind uint8

// Mistraining strategies.
const (
	// TrainBoundsBranch biases the bounds-check branch with in-bounds
	// inputs (Spectre v1).
	TrainBoundsBranch TrainKind = iota
	// TrainIndirectTarget biases the BTB through a benign jump target
	// (Spectre v2).
	TrainIndirectTarget
	trainKinds
)

var trainNames = [...]string{"bounds-branch", "indirect-target"}

func (t TrainKind) String() string {
	if int(t) < len(trainNames) {
		return trainNames[t]
	}
	return "unknown"
}

// ChannelKind selects the transmission channel and with it the receiver
// procedure.
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

var channelNames = [...]string{"probe-reload", "inclusion", "coherence-store",
	"coherence-load", "prefetch-next", "ifetch"}

func (c ChannelKind) String() string {
	if int(c) < len(channelNames) {
		return channelNames[c]
	}
	return "unknown"
}

// DecideKind selects the receiver's decision rule.
type DecideKind uint8

// Decision rules.
const (
	// DecideFastestOutlier: the fastest candidate leaks, success only when
	// it is a clear outlier below the median (score).
	DecideFastestOutlier DecideKind = iota
	// DecideSlowestDelta: the slowest candidate leaks and must beat the
	// runner-up by MinDelta cycles (scoreDelta).
	DecideSlowestDelta
	decideKinds
)

var decideNames = [...]string{"fastest-outlier", "slowest-delta"}

func (d DecideKind) String() string {
	if int(d) < len(decideNames) {
		return decideNames[d]
	}
	return "unknown"
}

// Scenario is one declarative transient-leak scenario. The zero value is
// invalid; construct scenarios from the Scenarios registry, DecodeScenario,
// or literals validated with Validate.
type Scenario struct {
	Name    string
	Gadget  GadgetKind
	Train   TrainKind
	Channel ChannelKind
	Decide  DecideKind
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
	// MinDelta is the DecideSlowestDelta threshold in cycles (0 for
	// DecideFastestOutlier).
	MinDelta event.Cycle
	// Secret is the canonical secret value for matrix runs.
	Secret int
}

// probeSegBytes is the size of the shared probe segment in the victim
// layout; every probe-coded channel must fit inside it.
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

// Validate checks structural and semantic constraints: kind ranges, gadget/
// channel/training compatibility, and channel-specific candidate and stride
// bounds.
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
	if s.Train >= trainKinds {
		return fmt.Errorf("attack: scenario %s: unknown training %d", s.Name, s.Train)
	}
	if s.Channel >= channelKinds {
		return fmt.Errorf("attack: scenario %s: unknown channel %d", s.Name, s.Channel)
	}
	if s.Decide >= decideKinds {
		return fmt.Errorf("attack: scenario %s: unknown decision rule %d", s.Name, s.Decide)
	}
	indirect := s.Gadget == GadgetJumpTable || s.Gadget == GadgetJumpLoad
	if indirect != (s.Train == TrainIndirectTarget) {
		return fmt.Errorf("attack: scenario %s: training %s requires an indirect-jump gadget (and vice versa)",
			s.Name, s.Train)
	}
	okChan := map[GadgetKind][]ChannelKind{
		GadgetIndexLoad: {ChannelProbeReload, ChannelCoherenceStore, ChannelCoherenceLoad},
		GadgetSetFill:   {ChannelInclusion},
		GadgetStream:    {ChannelPrefetchNext},
		GadgetJumpTable: {ChannelIfetch},
		GadgetJumpLoad:  {ChannelProbeReload},
	}
	compat := false
	for _, c := range okChan[s.Gadget] {
		if c == s.Channel {
			compat = true
		}
	}
	if !compat {
		return fmt.Errorf("attack: scenario %s: gadget %s cannot transmit through channel %s",
			s.Name, s.Gadget, s.Channel)
	}
	wantDelta := s.Channel == ChannelInclusion || s.Channel == ChannelCoherenceStore ||
		s.Channel == ChannelCoherenceLoad
	if wantDelta != (s.Decide == DecideSlowestDelta) {
		return fmt.Errorf("attack: scenario %s: channel %s requires decision rule %s",
			s.Name, s.Channel, map[bool]DecideKind{true: DecideSlowestDelta, false: DecideFastestOutlier}[wantDelta])
	}
	if wantDelta {
		if s.MinDelta <= 0 {
			return fmt.Errorf("attack: scenario %s: %s needs MinDelta > 0", s.Name, s.Decide)
		}
	} else if s.MinDelta != 0 {
		return fmt.Errorf("attack: scenario %s: %s takes no MinDelta", s.Name, s.Decide)
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
	switch s.Channel {
	case ChannelProbeReload, ChannelCoherenceStore, ChannelCoherenceLoad:
		if s.Candidates < 2 || s.Candidates > 15 {
			return fmt.Errorf("attack: scenario %s: %s candidates %d outside [2,15]", s.Name, s.Channel, s.Candidates)
		}
		if s.Stride < 128 {
			return fmt.Errorf("attack: scenario %s: probe stride %d below 128", s.Name, s.Stride)
		}
		if (s.benignIndex()+1)*int(s.Stride) > probeSegBytes {
			return fmt.Errorf("attack: scenario %s: %d candidates at stride %d overflow the %d-byte probe segment",
				s.Name, s.Candidates, s.Stride, probeSegBytes)
		}
	case ChannelInclusion:
		if s.Candidates != 2 {
			return fmt.Errorf("attack: scenario %s: inclusion primes exactly 2 sets, got %d", s.Name, s.Candidates)
		}
		if s.Stride != 64 {
			return fmt.Errorf("attack: scenario %s: inclusion set-select stride must be 64, got %d", s.Name, s.Stride)
		}
	case ChannelPrefetchNext:
		if s.Candidates < 2 || s.Candidates > 15 {
			return fmt.Errorf("attack: scenario %s: prefetch candidates %d outside [2,15]", s.Name, s.Candidates)
		}
		if s.Stride < 512 {
			// The gadget streams 4 lines and the receiver probes line 4:
			// regions below 512B would overlap their neighbours.
			return fmt.Errorf("attack: scenario %s: prefetch region stride %d below 512", s.Name, s.Stride)
		}
		if (s.benignIndex()+1)*int(s.Stride) > probeSegBytes {
			return fmt.Errorf("attack: scenario %s: %d regions of %d bytes overflow the probe segment",
				s.Name, s.Candidates, s.Stride)
		}
	case ChannelIfetch:
		if s.Candidates < 2 || s.Candidates > 8 {
			return fmt.Errorf("attack: scenario %s: ifetch candidates %d outside [2,8]", s.Name, s.Candidates)
		}
		if s.Stride != codeBlockStride {
			return fmt.Errorf("attack: scenario %s: code-block stride must be %d, got %d",
				s.Name, codeBlockStride, s.Stride)
		}
	}
	if s.Gadget == GadgetJumpLoad && s.Candidates > 8 {
		return fmt.Errorf("attack: scenario %s: jump-load candidates %d outside [2,8]", s.Name, s.Candidates)
	}
	return nil
}

// encodePrefix versions the scenario wire encoding.
const encodePrefix = "scenario/v1"

// Encode renders the scenario in its canonical wire form:
//
//	scenario/v1|name=N|gadget=G|train=T|chan=C|decide=D|cand=K|stride=S|dist=P|delta=M|secret=X
//
// DecodeScenario(Encode(s)) == s for every valid scenario.
func (s Scenario) Encode() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|name=%s|gadget=%s|train=%s|chan=%s|decide=%s|cand=%d|stride=%d|dist=%d|delta=%d|secret=%d",
		encodePrefix, s.Name, s.Gadget, s.Train, s.Channel, s.Decide,
		s.Candidates, s.Stride, s.SecretDist, s.MinDelta, s.Secret)
	return b.String()
}

// DecodeScenario parses the canonical wire form produced by Encode. The
// decoder is strict: fixed field order, no missing or extra fields, kind
// names from the tables only, canonical (no leading-zero) integers, and
// full semantic validation — so decode-then-encode round-trips bit-exactly.
func DecodeScenario(enc string) (Scenario, error) {
	parts := strings.Split(enc, "|")
	if len(parts) != 11 || parts[0] != encodePrefix {
		return Scenario{}, fmt.Errorf("attack: scenario encoding must have 11 %q-prefixed fields", encodePrefix)
	}
	keys := []string{"name", "gadget", "train", "chan", "decide", "cand", "stride", "dist", "delta", "secret"}
	vals := make(map[string]string, len(keys))
	for i, k := range keys {
		f := parts[i+1]
		pre := k + "="
		if !strings.HasPrefix(f, pre) {
			return Scenario{}, fmt.Errorf("attack: scenario field %d must be %s=..., got %q", i+1, k, f)
		}
		vals[k] = f[len(pre):]
	}
	var s Scenario
	s.Name = vals["name"]
	kind := func(field string, names []string) (uint8, error) {
		for i, n := range names {
			if vals[field] == n {
				return uint8(i), nil
			}
		}
		return 0, fmt.Errorf("attack: unknown scenario %s %q", field, vals[field])
	}
	g, err := kind("gadget", gadgetNames[:])
	if err != nil {
		return Scenario{}, err
	}
	s.Gadget = GadgetKind(g)
	t, err := kind("train", trainNames[:])
	if err != nil {
		return Scenario{}, err
	}
	s.Train = TrainKind(t)
	c, err := kind("chan", channelNames[:])
	if err != nil {
		return Scenario{}, err
	}
	s.Channel = ChannelKind(c)
	d, err := kind("decide", decideNames[:])
	if err != nil {
		return Scenario{}, err
	}
	s.Decide = DecideKind(d)
	num := func(field string, max uint64) (uint64, error) {
		raw := vals[field]
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil || strconv.FormatUint(v, 10) != raw {
			return 0, fmt.Errorf("attack: scenario %s %q is not a canonical integer", field, raw)
		}
		if v > max {
			return 0, fmt.Errorf("attack: scenario %s %d exceeds %d", field, v, max)
		}
		return v, nil
	}
	cand, err := num("cand", 1<<20)
	if err != nil {
		return Scenario{}, err
	}
	s.Candidates = int(cand)
	stride, err := num("stride", 1<<32)
	if err != nil {
		return Scenario{}, err
	}
	s.Stride = stride
	dist, err := num("dist", 1<<20)
	if err != nil {
		return Scenario{}, err
	}
	s.SecretDist = int(dist)
	delta, err := num("delta", 1<<32)
	if err != nil {
		return Scenario{}, err
	}
	s.MinDelta = event.Cycle(delta)
	secret, err := num("secret", 1<<20)
	if err != nil {
		return Scenario{}, err
	}
	s.Secret = int(secret)
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// Scenarios returns the attack corpus, sorted by name: the six hand-built
// attacks of the paper's evaluation expressed as specs, plus generated
// variants sweeping the taxonomy (v1 index distances and strides, v2
// indirect-jump mistraining with data and instruction channels, and
// MeltdownPrime-style multi-candidate coherence channels).
func Scenarios() []Scenario {
	list := []Scenario{
		// The paper's six attacks.
		{Name: "spectre", Gadget: GadgetIndexLoad, Train: TrainBoundsBranch,
			Channel: ChannelProbeReload, Decide: DecideFastestOutlier,
			Candidates: 15, Stride: 512, Secret: 11},
		{Name: "inclusion", Gadget: GadgetSetFill, Train: TrainBoundsBranch,
			Channel: ChannelInclusion, Decide: DecideSlowestDelta,
			Candidates: 2, Stride: 64, MinDelta: 20, Secret: 1},
		{Name: "shareddata", Gadget: GadgetIndexLoad, Train: TrainBoundsBranch,
			Channel: ChannelCoherenceStore, Decide: DecideSlowestDelta,
			Candidates: 2, Stride: 512, MinDelta: 8, Secret: 1},
		{Name: "filtercoherency", Gadget: GadgetIndexLoad, Train: TrainBoundsBranch,
			Channel: ChannelCoherenceLoad, Decide: DecideSlowestDelta,
			Candidates: 2, Stride: 512, MinDelta: 8, Secret: 0},
		{Name: "prefetcher", Gadget: GadgetStream, Train: TrainBoundsBranch,
			Channel: ChannelPrefetchNext, Decide: DecideFastestOutlier,
			Candidates: 4, Stride: 2048, Secret: 2},
		{Name: "icache", Gadget: GadgetJumpTable, Train: TrainIndirectTarget,
			Channel: ChannelIfetch, Decide: DecideFastestOutlier,
			Candidates: 4, Stride: codeBlockStride, Secret: 3},

		// Spectre v1 index sweeps: the out-of-bounds index reaches a secret
		// cell 4 and 16 lines past the array.
		{Name: "spectre-far", Gadget: GadgetIndexLoad, Train: TrainBoundsBranch,
			Channel: ChannelProbeReload, Decide: DecideFastestOutlier,
			Candidates: 15, Stride: 512, SecretDist: 4, Secret: 7},
		{Name: "spectre-deep", Gadget: GadgetIndexLoad, Train: TrainBoundsBranch,
			Channel: ChannelProbeReload, Decide: DecideFastestOutlier,
			Candidates: 15, Stride: 512, SecretDist: 16, Secret: 13},
		// Page-stride probe coding (one candidate per 4KiB page).
		{Name: "spectre-wide", Gadget: GadgetIndexLoad, Train: TrainBoundsBranch,
			Channel: ChannelProbeReload, Decide: DecideFastestOutlier,
			Candidates: 7, Stride: 4096, Secret: 5},

		// Spectre v2: indirect-jump mistraining with a data-cache channel.
		{Name: "btb-data", Gadget: GadgetJumpLoad, Train: TrainIndirectTarget,
			Channel: ChannelProbeReload, Decide: DecideFastestOutlier,
			Candidates: 4, Stride: 512, Secret: 2},

		// MeltdownPrime-style multi-candidate coherence channels: prime
		// several lines, watch which one's coherence state the speculation
		// changed.
		{Name: "coherenceprime", Gadget: GadgetIndexLoad, Train: TrainBoundsBranch,
			Channel: ChannelCoherenceStore, Decide: DecideSlowestDelta,
			Candidates: 4, Stride: 512, MinDelta: 8, Secret: 3},
		{Name: "filterprime", Gadget: GadgetIndexLoad, Train: TrainBoundsBranch,
			Channel: ChannelCoherenceLoad, Decide: DecideSlowestDelta,
			Candidates: 4, Stride: 512, MinDelta: 8, Secret: 2},

		// Prefetcher channel with 1KiB regions.
		{Name: "prefetcher-near", Gadget: GadgetStream, Train: TrainBoundsBranch,
			Channel: ChannelPrefetchNext, Decide: DecideFastestOutlier,
			Candidates: 4, Stride: 1024, Secret: 1},
	}
	for _, s := range list {
		if err := s.Validate(); err != nil {
			panic(err)
		}
	}
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && list[j].Name < list[j-1].Name; j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
	return list
}

// ScenarioByName looks up a registry scenario.
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
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
