package attack

import (
	"context"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/defense"
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

func TestScenarioEncodeDecodeRoundTrip(t *testing.T) {
	for _, sc := range Scenarios() {
		enc := sc.Encode()
		got, err := DecodeScenario(enc)
		if err != nil {
			t.Fatalf("%s: decode of own encoding failed: %v\n%s", sc.Name, err, enc)
		}
		if got != sc {
			t.Fatalf("%s: round trip mismatch:\n in: %+v\nout: %+v", sc.Name, sc, got)
		}
		if re := got.Encode(); re != enc {
			t.Fatalf("%s: re-encode differs:\n in: %s\nout: %s", sc.Name, enc, re)
		}
	}
}

func TestDecodeScenarioStrict(t *testing.T) {
	valid := scenario(t, "spectre").Encode()
	reject := []struct {
		name, enc string
	}{
		{"empty", ""},
		{"wrong prefix", strings.Replace(valid, "scenario/v1", "scenario/v2", 1)},
		{"missing field", strings.Replace(valid, "|dist=0", "", 1)},
		{"extra field", valid + "|zzz=1"},
		{"reordered fields", strings.Replace(valid,
			"gadget=index-load|train=bounds-branch", "train=bounds-branch|gadget=index-load", 1)},
		{"unknown gadget", strings.Replace(valid, "gadget=index-load", "gadget=rsb", 1)},
		{"unknown channel", strings.Replace(valid, "chan=probe-reload", "chan=dram-row", 1)},
		{"non-canonical int", strings.Replace(valid, "cand=15", "cand=015", 1)},
		{"negative int", strings.Replace(valid, "secret=11", "secret=-1", 1)},
		{"huge int", strings.Replace(valid, "stride=512", "stride=99999999999999999999", 1)},
		{"bad name char", strings.Replace(valid, "name=spectre", "name=Spectre!", 1)},
		{"semantic: secret out of range", strings.Replace(valid, "secret=11", "secret=15", 1)},
		{"semantic: stride not power of two", strings.Replace(valid, "stride=512", "stride=513", 1)},
		{"semantic: incompatible channel", strings.Replace(valid, "chan=probe-reload", "chan=inclusion", 1)},
	}
	for _, tc := range reject {
		if _, err := DecodeScenario(tc.enc); err == nil {
			t.Errorf("%s: decoder accepted %q", tc.name, tc.enc)
		}
	}
}

// FuzzScenarioDecode pins the strict round-trip property: any encoding the
// decoder accepts must re-encode to exactly the input bytes (the encoding
// is canonical), and the decoded spec must validate and round-trip again.
func FuzzScenarioDecode(f *testing.F) {
	for _, sc := range Scenarios() {
		f.Add(sc.Encode())
	}
	f.Add("scenario/v1|name=x|gadget=index-load|train=bounds-branch|chan=probe-reload|decide=fastest-outlier|cand=2|stride=128|dist=0|delta=0|secret=0")
	f.Add("scenario/v2|bogus")
	f.Fuzz(func(t *testing.T, enc string) {
		sc, err := DecodeScenario(enc)
		if err != nil {
			return
		}
		if verr := sc.Validate(); verr != nil {
			t.Fatalf("decoder accepted an invalid scenario: %v\n%q", verr, enc)
		}
		re := sc.Encode()
		if re != enc {
			t.Fatalf("accepted encoding is not canonical:\n in: %q\nout: %q", enc, re)
		}
		back, err := DecodeScenario(re)
		if err != nil || back != sc {
			t.Fatalf("re-decode mismatch (%v):\n in: %+v\nout: %+v", err, sc, back)
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
			cores := 2
			if sc.Channel == ChannelProbeReload || sc.Channel == ChannelIfetch {
				cores = 1
			}
			r := newRig(cores, sch)
			prog, l := buildScenarioVictim(sc)
			victim := r.sys.NewProcess(prog)
			r.writeWord(victim, l.size, 8)
			r.writeWord(victim, l.secret, uint64(sc.Secret))
			r.writeWord(victim, l.array1+8, uint64(sc.trainValue()))
			r.sys.RunOn(cores-1, victim, 0)
			r.step(200)
			r.train(victim, l, 4)
			r.fire(cores-1, victim, l, (l.secret-l.array1)/8, 0, 0)
			if err := r.sys.Drain(ctx); err != nil {
				t.Fatalf("scenario %s under %s does not quiesce: %v", sc.Name, sch.Name, err)
			}
		}
	}
}
