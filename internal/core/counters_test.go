package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/mem"
	"repro/internal/memsys"
)

// filterPort is the port of a one-core MuonTrap hierarchy with the given
// data filter cache — the port counts what its filter caches do — and a
// function that runs one load to completion.
func filterPort(t *testing.T, l0d core.FilterConfig) (*memsys.Port, func(va mem.VAddr, pa mem.Addr, spec bool) memsys.AccessResult) {
	sched := event.NewScheduler()
	cfg := memsys.DefaultConfig(1)
	cfg.Mode = memsys.Mode{L0Data: true, L0Inst: true, FilterProtect: true, CoherenceProtect: true}
	cfg.L0D = l0d
	p := memsys.New(sched, mem.NewPhysical(), cfg).Port(0)
	return p, func(va mem.VAddr, pa mem.Addr, spec bool) memsys.AccessResult {
		t.Helper()
		var res memsys.AccessResult
		done := false
		p.Load(0x400100, va, pa, spec, func(r memsys.AccessResult) { res, done = r, true })
		for i := 0; i < 5000 && !done; i++ {
			sched.Tick()
		}
		if !done {
			t.Fatalf("load of %#x did not complete", va)
		}
		return res
	}
}

// TestHitRate pins the counters a filter cache's hit rate is read from
// (the dumped l0d hits and misses): each CPU-side lookup counts once, and
// a line found under the virtual tag counts as a hit even when its
// physical tag sends the access on to the L1.
func TestHitRate(t *testing.T) {
	p, load := filterPort(t, core.DefaultDataFilterConfig())
	load(0x9000, 0x5000, true)
	if r := load(0x9000, 0x5000, true); r.Level != memsys.FromL0 {
		t.Fatalf("second load served from level %d, want the filter cache", r.Level)
	}
	if r := load(0x9000, 0x7000, true); r.Level == memsys.FromL0 {
		t.Fatal("a line under another physical tag served the load")
	}
	if h, m := p.Stat(memsys.PCL0DHits), p.Stat(memsys.PCL0DMisses); h != 2 || m != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", h, m)
	}
}

// TestUncommittedEvictionCounted: a fill that displaces an uncommitted
// filter line counts once; one that displaces a committed line does not.
func TestUncommittedEvictionCounted(t *testing.T) {
	p, load := filterPort(t, core.FilterConfig{Name: "tiny", SizeBytes: 64, Assoc: 1, MSHRs: 4})
	load(0x9000, 0x5000, true)
	load(0xa000, 0x6000, true)  // speculative over uncommitted
	load(0xb000, 0x7000, false) // committed over uncommitted
	load(0xc000, 0x8000, false) // committed over committed
	if n := p.Stat(memsys.PCL0DEvictedUncommitted); n != 2 {
		t.Fatalf("EvictedUncommitted = %d, want 2", n)
	}
}
