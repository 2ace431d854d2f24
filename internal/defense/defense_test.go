package defense

import (
	"testing"

	"repro/internal/cpu"
)

func TestAllSchemesHaveUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range All() {
		if s.Name == "" || s.Description == "" {
			t.Fatalf("scheme %+v missing name or description", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate scheme name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("muontrap")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Mode.FilterProtect || !s.Mode.CoherenceProtect || !s.Mode.CommitPrefetch {
		t.Fatalf("muontrap scheme incomplete: %+v", s.Mode)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
}

func TestInsecureIsTrulyBare(t *testing.T) {
	zero := Insecure().Mode
	if zero.L0Data || zero.FilterProtect || zero.CoherenceProtect {
		t.Fatalf("insecure mode not bare: %+v", zero)
	}
	if Insecure().CPU != cpu.DefenseNone {
		t.Fatal("insecure should use the plain pipeline")
	}
}

func TestCumulativeStagesAreMonotone(t *testing.T) {
	stages := CumulativeStages()
	if len(stages) != 6 {
		t.Fatalf("expected 6 cumulative stages, got %d", len(stages))
	}
	// Each stage must enable a superset of protection mechanisms relative
	// to the previous stage (ignoring the insecure-L0 start).
	on := func(i int) int {
		m := stages[i].Mode
		n := 0
		for _, v := range []bool{m.L0Data, m.L0Inst, m.FilterProtect,
			m.CoherenceProtect, m.CommitPrefetch, m.FilterTLB, m.ClearOnMisspec} {
			if v {
				n++
			}
		}
		return n
	}
	for i := 1; i < len(stages); i++ {
		if on(i) < on(i-1) {
			t.Fatalf("stage %s enables fewer mechanisms than %s",
				stages[i].Name, stages[i-1].Name)
		}
	}
}

func TestComparisonMatchesPaperFigure3(t *testing.T) {
	want := []string{"muontrap", "invisispec-spectre", "invisispec-future",
		"stt-spectre", "stt-future"}
	got := Comparison()
	if len(got) != len(want) {
		t.Fatalf("comparison has %d schemes", len(got))
	}
	for i := range want {
		if got[i].Name != want[i] {
			t.Fatalf("comparison[%d] = %s, want %s", i, got[i].Name, want[i])
		}
	}
}

func TestInvisiSpecAndSTTUseCPUDefenses(t *testing.T) {
	cases := map[string]cpu.Defense{
		"invisispec-spectre": cpu.DefenseInvisiSpecSpectre,
		"invisispec-future":  cpu.DefenseInvisiSpecFuture,
		"stt-spectre":        cpu.DefenseSTTSpectre,
		"stt-future":         cpu.DefenseSTTFuture,
		"safebet":            cpu.DefenseSafeBet,
	}
	for name, want := range cases {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.CPU != want {
			t.Fatalf("%s: CPU defense = %v, want %v", name, s.CPU, want)
		}
		if s.Mode.L0Data {
			t.Fatalf("%s: pipeline defenses have no filter caches", name)
		}
	}
}
