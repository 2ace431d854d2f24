package memsys

import (
	"testing"

	"repro/internal/mem"
)

// fetchClient counts typed instruction-fetch deliveries.
type fetchClient struct{ fetched int }

func (c *fetchClient) TranslateDone(int32, uint64, mem.Addr, bool, bool) {}
func (c *fetchClient) LoadDone(int32, uint64, AccessResult)              {}
func (c *fetchClient) IfetchDone(uint64, AccessResult)                   { c.fetched++ }

// TestIfetchReloadPrefetchSteadyStateZeroAlloc pins that the memory
// system's pending actions are typed events, not closures: once the slot
// registries and the event ring have warmed, a round of L1I misses (some
// retried on a full MSHR file, one coalesced onto another's MSHR), their
// commit-time write-through to the L1I, passive reloads of lines
// committed after leaving the filter cache, and the L2 fills the
// commit-trained prefetcher issues for them allocates nothing.
func TestIfetchReloadPrefetchSteadyStateZeroAlloc(t *testing.T) {
	r := newRig(1, muontrap)
	p := r.h.Port(0)
	cl := &fetchClient{}
	p.SetClient(cl)

	const (
		code    = mem.Addr(0x700000)
		stream  = mem.Addr(0x800000)
		fetches = 6 // more lines than the L0I has MSHRs: the last ones retry
	)
	next := 0
	drain := func() {
		for i := 0; i < 5000 && r.sched.Pending() > 0; i++ {
			r.sched.Tick()
		}
		if r.sched.Pending() > 0 || !r.h.Quiet() {
			t.Fatalf("round did not drain: %d pending events, quiesced: %v", r.sched.Pending(), r.h.Quiesced())
		}
	}
	round := func() {
		cl.fetched = 0
		p.FlushDomain() // every fetch misses the L0I ...
		for i := 0; i < fetches; i++ {
			pa := code + mem.Addr(i*mem.LineBytes)
			p.l1i.InvalidateLine(uint64(pa)) // ... and the L1I
			p.IfetchC(mem.VAddr(pa), pa, 1)
		}
		p.IfetchC(mem.VAddr(code), code, 1) // coalesces onto the first miss
		for k := 0; k < 4; k++ {
			pa := stream + mem.Addr(next*mem.LineBytes)
			next++
			p.CommitLoad(0x400100, mem.VAddr(pa), pa) // never in the L0D: a reload
		}
		drain()
		if cl.fetched != fetches+1 {
			t.Fatalf("%d fetches delivered, want %d", cl.fetched, fetches+1)
		}
		for i := 0; i < fetches; i++ {
			p.CommitIfetch(code + mem.Addr(i*mem.LineBytes))
		}
		drain()
	}

	for i := 0; i < 8; i++ {
		round()
	}
	ifetches, reloads, pfFills := p.Stat(PCIfetches), p.Stat(PCCommitReloads), r.h.ctr[prefetchFills]
	if a := testing.AllocsPerRun(50, round); a != 0 {
		t.Fatalf("a round of ifetch misses, commit reloads and prefetch fills allocates %.1f, want 0", a)
	}
	// Every path the round means to take was taken.
	if got := p.Stat(PCIfetches) - ifetches; got <= 51*(fetches+1) {
		t.Fatalf("%d ifetch attempts in 51 rounds: no fetch was retried", got)
	}
	if got := p.Stat(PCCommitReloads) - reloads; got != 51*4 {
		t.Fatalf("%d commit reloads in 51 rounds, want %d", got, 51*4)
	}
	if r.h.ctr[prefetchFills] == pfFills {
		t.Fatal("the commit-trained prefetcher issued no fill")
	}
	if p.L1IPeek(code) == nil {
		t.Fatal("committed instruction line did not reach the L1I")
	}
}
