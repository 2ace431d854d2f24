package memsys

import (
	"testing"

	"repro/internal/mem"
)

// walkClient is a minimal typed-completion receiver for translation and
// load tests.
type walkClient struct {
	done   bool
	paddr  mem.Addr
	fault  bool
	loaded bool
}

func (c *walkClient) TranslateDone(idx int32, seq uint64, paddr mem.Addr, fault bool) {
	c.done, c.paddr, c.fault = true, paddr, fault
}
func (c *walkClient) LoadDone(idx int32, seq uint64, res AccessResult) { c.loaded = true }
func (c *walkClient) IfetchDone(epoch uint64, res AccessResult)        {}

// TestPTWalkSteadyStateZeroAlloc pins the pooled page-table-walk path:
// once the walker's page-table lines sit in the L1D (the hot case — a TLB
// miss whose walk hits the cache), a complete translate-walk-insert cycle
// through the typed client route allocates nothing. This is the
// regression gate for converting the per-walk step-closure chain to
// pooled typed callbacks.
func TestPTWalkSteadyStateZeroAlloc(t *testing.T) {
	r := newRig(1, insecure)
	p := r.h.Port(0)
	cl := &walkClient{}
	p.SetClient(cl)

	const va = mem.VAddr(0x3000)
	vpn := mem.PageNum(va)

	// translate runs one translation and reports whether it walked.
	translate := func() (walked bool) {
		walks := p.Stat(PCPTWalks)
		cl.done = false
		p.TranslateC(va, false, true, 0, 1)
		for i := 0; i < 5000 && !cl.done; i++ {
			r.sched.Tick()
		}
		if !cl.done {
			t.Fatal("translation did not complete")
		}
		if cl.fault {
			t.Fatal("unexpected fault")
		}
		return p.Stat(PCPTWalks) != walks
	}

	// Cold: the first walk misses to DRAM and fills the walk lines into
	// the L1D (run setup may allocate).
	if !translate() {
		t.Fatal("first translation should walk")
	}
	// Warm the pools (walk slots, event ring) before measuring.
	for i := 0; i < 3; i++ {
		if !p.dtlb.Remove(p.asid, vpn) {
			t.Fatal("translation missing from the main TLB")
		}
		if !translate() {
			t.Fatal("re-walk expected after TLB eviction")
		}
	}

	avg := testing.AllocsPerRun(100, func() {
		p.dtlb.Remove(p.asid, vpn)
		translate()
	})
	if avg != 0 {
		t.Fatalf("steady-state PTW path allocates %.1f/op, want 0", avg)
	}
}
