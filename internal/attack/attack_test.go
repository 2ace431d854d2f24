package attack

import (
	"testing"

	"repro/internal/defense"
	"repro/internal/event"
	"repro/internal/memsys"
)

// scenario fetches a registry scenario, failing the test when it is
// missing.
func scenario(t testing.TB, name string) Scenario {
	t.Helper()
	sc, ok := ScenarioByName(name)
	if !ok {
		t.Fatalf("no registry scenario %q", name)
	}
	return sc
}

// run runs the named registry scenario with the given secret under a
// scheme that is mode alone: the memory-system protections under test and
// no pipeline defense.
func run(t testing.TB, name string, mode memsys.Mode, secret int) Result {
	t.Helper()
	return RunSecret(scenario(t, name), defense.Scheme{Name: "mode-only", Mode: mode}, secret)
}

var (
	insecure = memsys.Mode{}

	// fcacheOnly is the vulnerable intermediate design of Figure 8/9's
	// "fcache only" stage: filter caches without coherence protections.
	fcacheOnly = memsys.Mode{L0Data: true, FilterProtect: true, FilterTLB: true}

	// withCoherence adds §4.5's coherence protections but not yet the
	// instruction filter or commit-time prefetching.
	withCoherence = memsys.Mode{L0Data: true, FilterProtect: true, FilterTLB: true,
		CoherenceProtect: true}

	// full is the complete MuonTrap configuration.
	full = memsys.Mode{L0Data: true, L0Inst: true, FilterProtect: true,
		CoherenceProtect: true, CommitPrefetch: true, FilterTLB: true}
)

func TestAttack1SpectreLeaksInsecure(t *testing.T) {
	for _, secret := range []int{3, 7, 12} {
		res := run(t, "spectre", insecure, secret)
		if !res.Succeeded {
			t.Fatalf("Spectre should leak on the insecure baseline: %v", res)
		}
	}
}

func TestAttack1SpectreDefeatedByMuonTrap(t *testing.T) {
	for _, secret := range []int{3, 7, 12} {
		res := run(t, "spectre", full, secret)
		if res.Succeeded {
			t.Fatalf("MuonTrap failed to stop Spectre: %v", res)
		}
	}
}

func TestAttack1AlsoDefeatedByFcacheAlone(t *testing.T) {
	// The basic data filter cache already defends the original Spectre
	// (§6.5): speculative fills never reach shared caches and are flushed
	// on the context switch.
	res := run(t, "spectre", fcacheOnly, 9)
	if res.Succeeded {
		t.Fatalf("filter cache alone should stop attack 1: %v", res)
	}
}

func TestAttack2InclusionLeaksInsecure(t *testing.T) {
	for _, bit := range []int{0, 1} {
		res := run(t, "inclusion", insecure, bit)
		if !res.Succeeded {
			t.Fatalf("inclusion attack should leak on insecure baseline: %v", res)
		}
	}
}

func TestAttack2DefeatedByMuonTrap(t *testing.T) {
	for _, bit := range []int{0, 1} {
		res := run(t, "inclusion", full, bit)
		if res.Succeeded {
			t.Fatalf("MuonTrap failed to stop the inclusion attack: %v", res)
		}
	}
}

func TestAttack3SharedDataLeaksInsecure(t *testing.T) {
	for _, bit := range []int{0, 1} {
		res := run(t, "shareddata", insecure, bit)
		if !res.Succeeded {
			t.Fatalf("shared-data attack should leak on insecure baseline: %v", res)
		}
	}
}

func TestAttack3SharedDataLeaksOnFcacheOnly(t *testing.T) {
	// Without the coherence protections, speculative loads still downgrade
	// the attacker's exclusive line: the filter cache alone is not enough.
	leaked := 0
	for _, bit := range []int{0, 1} {
		if run(t, "shareddata", fcacheOnly, bit).Succeeded {
			leaked++
		}
	}
	if leaked == 0 {
		t.Fatal("fcache-only design should still be vulnerable to attack 3")
	}
}

func TestAttack3DefeatedByCoherenceProtection(t *testing.T) {
	for _, bit := range []int{0, 1} {
		res := run(t, "shareddata", withCoherence, bit)
		if res.Succeeded {
			t.Fatalf("coherence protections failed to stop attack 3: %v", res)
		}
		res = run(t, "shareddata", full, bit)
		if res.Succeeded {
			t.Fatalf("full MuonTrap failed to stop attack 3: %v", res)
		}
	}
}

func TestAttack4FilterCoherencyLeaksOnNaiveFilter(t *testing.T) {
	leaked := 0
	for _, bit := range []int{0, 1} {
		if run(t, "filtercoherency", fcacheOnly, bit).Succeeded {
			leaked++
		}
	}
	if leaked == 0 {
		t.Fatal("naive exclusive-fill filter design should be vulnerable to attack 4")
	}
}

func TestAttack4DefeatedBySharedOnlyFills(t *testing.T) {
	for _, bit := range []int{0, 1} {
		res := run(t, "filtercoherency", withCoherence, bit)
		if res.Succeeded {
			t.Fatalf("S-only filter fills failed to stop attack 4: %v", res)
		}
		res = run(t, "filtercoherency", full, bit)
		if res.Succeeded {
			t.Fatalf("full MuonTrap failed to stop attack 4: %v", res)
		}
	}
}

func TestAttack5PrefetcherLeaksWithoutCommitTraining(t *testing.T) {
	leaked := 0
	for _, secret := range []int{0, 1, 2, 3} {
		if run(t, "prefetcher", insecure, secret).Succeeded {
			leaked++
		}
	}
	if leaked < 3 {
		t.Fatalf("prefetcher attack should leak on insecure baseline (%d/4)", leaked)
	}
	// The filter cache with coherence protections but *speculative*
	// prefetcher training is still vulnerable — the Figure 8 "prefetching"
	// stage exists precisely for this.
	leaked = 0
	for _, secret := range []int{0, 1, 2, 3} {
		if run(t, "prefetcher", withCoherence, secret).Succeeded {
			leaked++
		}
	}
	if leaked == 0 {
		t.Fatal("speculatively-trained prefetcher should still leak despite the filter cache")
	}
}

func TestAttack5DefeatedByCommitPrefetch(t *testing.T) {
	for _, secret := range []int{0, 1, 2, 3} {
		res := run(t, "prefetcher", full, secret)
		if res.Succeeded {
			t.Fatalf("commit-time prefetching failed to stop attack 5: %v", res)
		}
	}
}

func TestAttack6ICacheLeaksInsecure(t *testing.T) {
	leaked := 0
	for _, secret := range []int{0, 1, 2, 3} {
		if run(t, "icache", insecure, secret).Succeeded {
			leaked++
		}
	}
	if leaked < 3 {
		t.Fatalf("icache attack should leak on insecure baseline (%d/4)", leaked)
	}
}

func TestAttack6DefeatedByInstructionFilter(t *testing.T) {
	for _, secret := range []int{0, 1, 2, 3} {
		res := run(t, "icache", full, secret)
		if res.Succeeded {
			t.Fatalf("instruction filter cache failed to stop attack 6: %v", res)
		}
	}
}

func TestResultScoring(t *testing.T) {
	var r Result
	r.score([]event.Cycle{100, 100, 10, 100}, 2)
	if !r.Succeeded || r.Leaked != 2 {
		t.Fatalf("clear outlier should score as success: %+v", r)
	}
	var r2 Result
	r2.score([]event.Cycle{100, 101, 99, 100}, 2)
	if r2.Succeeded {
		t.Fatalf("flat latencies must not score as success: %+v", r2)
	}
}
