package attack

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/defense"
	"repro/internal/event"
)

func TestScenarioRegistry(t *testing.T) {
	scs := Scenarios()
	if len(scs) < 12 {
		t.Fatalf("corpus has %d scenarios, want at least 12", len(scs))
	}
	if !sort.SliceIsSorted(scs, func(i, j int) bool { return scs[i].Name < scs[j].Name }) {
		t.Fatal("Scenarios() is not sorted by name")
	}
	seen := make(map[string]bool)
	for _, sc := range scs {
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if err := sc.Validate(); err != nil {
			t.Fatalf("registry scenario %s invalid: %v", sc.Name, err)
		}
	}
	// The paper's six attacks must remain expressible as corpus specs.
	for _, name := range []string{"spectre", "inclusion", "shareddata",
		"filtercoherency", "prefetcher", "icache"} {
		if _, ok := ScenarioByName(name); !ok {
			t.Fatalf("paper attack %q missing from the corpus", name)
		}
	}
	if _, ok := ScenarioByName("nope"); ok {
		t.Fatal("ScenarioByName should reject unknown names")
	}
}

// FuzzScenarioEncode pins the property the attack cell's cache key rests
// on: two valid scenarios that differ encode differently.
func FuzzScenarioEncode(f *testing.F) {
	add := func(a, b Scenario) {
		f.Add(a.Name, uint8(a.Gadget), uint8(a.Channel), a.Candidates, a.Stride, a.SecretDist, uint64(a.MinDelta), a.Secret,
			b.Name, uint8(b.Gadget), uint8(b.Channel), b.Candidates, b.Stride, b.SecretDist, uint64(b.MinDelta), b.Secret)
	}
	scs := Scenarios()
	for i, sc := range scs {
		add(sc, scs[(i+1)%len(scs)])
	}
	add(scs[0], scs[0])
	other := scs[0]
	other.Secret = (other.Secret + 1) % other.Candidates
	add(scs[0], other)
	f.Fuzz(func(t *testing.T,
		an string, ag, ac uint8, acand int, astride uint64, adist int, adelta uint64, asecret int,
		bn string, bg, bc uint8, bcand int, bstride uint64, bdist int, bdelta uint64, bsecret int) {
		a := Scenario{Name: an, Gadget: GadgetKind(ag), Channel: ChannelKind(ac), Candidates: acand,
			Stride: astride, SecretDist: adist, MinDelta: event.Cycle(adelta), Secret: asecret}
		b := Scenario{Name: bn, Gadget: GadgetKind(bg), Channel: ChannelKind(bc), Candidates: bcand,
			Stride: bstride, SecretDist: bdist, MinDelta: event.Cycle(bdelta), Secret: bsecret}
		if a == b || a.Validate() != nil || b.Validate() != nil {
			return
		}
		if a.Encode() == b.Encode() {
			t.Fatalf("distinct scenarios share an encoding %q:\n%+v\n%+v", a.Encode(), a, b)
		}
	})
}

// TestScenarioVictimsQuiesce is the liveness property behind checkpointing
// and fleet migration: every generated victim program, after mistraining
// and a speculative fire under both the baseline and the strictest
// speculation restriction, must still bring the machine to a checkpointable
// boundary via System.Drain.
func TestScenarioVictimsQuiesce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, sch := range []defense.Scheme{defense.Insecure(), defense.MuonTrap(), defense.SafeBet()} {
		for _, sc := range Scenarios() {
			tr := newTrial(sc, sch, sc.Secret)
			tr.train(4)
			tr.fire(0, 0)
			if err := tr.sys.Drain(ctx); err != nil {
				t.Fatalf("scenario %s under %s does not quiesce: %v", sc.Name, sch.Name, err)
			}
		}
	}
}
