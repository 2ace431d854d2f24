package memsys

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/event"
	"repro/internal/mem"
	"repro/internal/tlb"
)

// testRig bundles a hierarchy with a scheduler and a process mapping for
// direct port-level tests.
type testRig struct {
	sched *event.Scheduler
	h     *Hierarchy
	pts   []*tlb.PageTable
}

func newRig(cores int, mode Mode) *testRig {
	sched := event.NewScheduler()
	cfg := DefaultConfig(cores)
	cfg.Mode = mode
	h := New(sched, mem.NewPhysical(), cfg)
	r := &testRig{sched: sched, h: h}
	for i := 0; i < cores; i++ {
		pt := tlb.NewPageTable(uint64(i+1), mem.Addr(0x4000_0000+uint64(i)*0x100_0000))
		// Map 16MiB of VA space onto per-core PA ranges starting at
		// (i+1)MiB, except a window at 0x2000_0000 shared by all cores.
		pt.MapRange(0, uint64(i+1)<<8, 4096)
		pt.MapRange(0x2000_0000>>mem.PageShift, 0x2000_0000>>mem.PageShift, 256)
		h.Port(i).SetProcess(uint64(i+1), pt)
		r.pts = append(r.pts, pt)
	}
	return r
}

// run advances the clock until fn sets done (bounded).
func (r *testRig) run(t *testing.T, done *bool, bound int) event.Cycle {
	t.Helper()
	start := r.sched.Now()
	for i := 0; i < bound && !*done; i++ {
		r.sched.Tick()
	}
	if !*done {
		t.Fatalf("operation did not complete within %d cycles", bound)
	}
	return r.sched.Now() - start
}

// load issues a load and returns (latency, result).
func (r *testRig) load(t *testing.T, c int, va mem.VAddr, pa mem.Addr, spec bool) (event.Cycle, AccessResult) {
	t.Helper()
	var res AccessResult
	done := false
	r.h.Port(c).Load(0x400100, va, pa, spec, func(ar AccessResult) {
		res = ar
		done = true
	})
	lat := r.run(t, &done, 5000)
	return lat, res
}

// store drains a store and returns its latency; the drain must report the
// line landed in the L1.
func (r *testRig) store(t *testing.T, c int, va mem.VAddr, pa mem.Addr) event.Cycle {
	t.Helper()
	var res AccessResult
	done := false
	r.h.Port(c).StoreDrain(0x400200, va, pa, func(ar AccessResult) {
		res = ar
		done = true
	})
	lat := r.run(t, &done, 5000)
	if res.Level != FromL1 {
		t.Fatalf("store drain level = %v, want FromL1", res.Level)
	}
	return lat
}

// settle runs the clock until no event is pending (bounded).
func (r *testRig) settle(t *testing.T) {
	t.Helper()
	for i := 0; i < 5000 && r.sched.Pending() > 0; i++ {
		r.sched.Tick()
	}
	if n := r.sched.Pending(); n != 0 {
		t.Fatalf("%d events still pending after 5000 cycles", n)
	}
}

var insecure = Mode{}

var muontrap = Mode{
	L0Data: true, L0Inst: true,
	FilterProtect: true, CoherenceProtect: true,
	CommitPrefetch: true, FilterTLB: true,
}

// fcache is the vulnerable "fcache only" design: a data filter cache with
// speculative isolation but no coherence protections, so a sole-copy
// speculative fill takes the line Exclusive in the filter.
var fcache = Mode{L0Data: true, FilterProtect: true, FilterTLB: true}

func TestInsecureLoadFillsL1AndL2(t *testing.T) {
	r := newRig(1, insecure)
	pa := mem.Addr(0x100000)
	lat1, res := r.load(t, 0, 0x1000, pa, true)
	if res.Level != FromMem {
		t.Fatalf("first load level = %v, want FromMem", res.Level)
	}
	if r.h.Port(0).L1DPeek(pa) == nil {
		t.Fatal("insecure load should fill L1D")
	}
	if r.h.Port(0).L2Peek(pa) == nil {
		t.Fatal("insecure load should fill L2")
	}
	lat2, res2 := r.load(t, 0, 0x1000, pa, true)
	if res2.Level != FromL1 {
		t.Fatalf("second load level = %v, want FromL1", res2.Level)
	}
	if lat2 >= lat1 {
		t.Fatalf("L1 hit (%d) not faster than miss (%d)", lat2, lat1)
	}
	if lat2 != r.h.cfg.Lat.L1DHit {
		t.Fatalf("L1 hit latency = %d, want %d", lat2, r.h.cfg.Lat.L1DHit)
	}
}

func TestMuonTrapSpeculativeLoadBypassesL1L2(t *testing.T) {
	r := newRig(1, muontrap)
	pa := mem.Addr(0x100000)
	_, res := r.load(t, 0, 0x1000, pa, true)
	if res.Level != FromMem {
		t.Fatalf("level = %v", res.Level)
	}
	if r.h.Port(0).L1DPeek(pa) != nil {
		t.Fatal("speculative load must not fill L1D (paper §4.1)")
	}
	if r.h.Port(0).L2Peek(pa) != nil {
		t.Fatal("speculative load must not fill L2 (paper §4.1)")
	}
	l := r.h.Port(0).FilterD().Snoop(pa)
	if l == nil {
		t.Fatal("speculative load must fill the filter cache")
	}
	if l.Committed {
		t.Fatal("filter line must start uncommitted")
	}
	if l.State != cache.SharedExclusivePending {
		t.Fatalf("sole copy should be SE, got %v", l.State)
	}
}

func TestMuonTrapL0HitIsFasterThanL1(t *testing.T) {
	r := newRig(1, muontrap)
	pa := mem.Addr(0x100000)
	r.load(t, 0, 0x1000, pa, true)
	lat, res := r.load(t, 0, 0x1000, pa, true)
	if res.Level != FromL0 {
		t.Fatalf("level = %v, want FromL0", res.Level)
	}
	if lat != r.h.cfg.Lat.L0Hit {
		t.Fatalf("L0 hit latency = %d, want %d", lat, r.h.cfg.Lat.L0Hit)
	}
}

func TestMuonTrapL1HitPaysSerialisationPenalty(t *testing.T) {
	// A load that hits in L1 but missed the L0 pays L0+L1 latency, unless
	// ParallelL1 is configured (§6.5).
	r := newRig(1, muontrap)
	pa := mem.Addr(0x100000)
	r.load(t, 0, 0x1000, pa, true)
	r.h.Port(0).CommitLoad(0x400100, 0x1000, pa)
	for i := 0; i < 200; i++ {
		r.sched.Tick()
	}
	if r.h.Port(0).L1DPeek(pa) == nil {
		t.Fatal("commit write-through did not install in L1")
	}
	// Flush the filter so the next load misses L0 and hits L1.
	r.h.Port(0).FlushDomain()
	lat, res := r.load(t, 0, 0x1000, pa, true)
	if res.Level != FromL1 {
		t.Fatalf("level = %v, want FromL1", res.Level)
	}
	want := r.h.cfg.Lat.L0Hit + r.h.cfg.Lat.L1DHit
	if lat != want {
		t.Fatalf("serialised L1 hit = %d, want %d", lat, want)
	}

	// Same topology with ParallelL1: penalty disappears.
	m := muontrap
	m.ParallelL1 = true
	r2 := newRig(1, m)
	r2.load(t, 0, 0x1000, pa, true)
	r2.h.Port(0).CommitLoad(0x400100, 0x1000, pa)
	for i := 0; i < 200; i++ {
		r2.sched.Tick()
	}
	r2.h.Port(0).FlushDomain()
	lat2, _ := r2.load(t, 0, 0x1000, pa, true)
	if lat2 != r2.h.cfg.Lat.L1DHit {
		t.Fatalf("parallel L1 hit = %d, want %d", lat2, r2.h.cfg.Lat.L1DHit)
	}
}

func TestCommitWriteThroughInstallsAndUpgrades(t *testing.T) {
	r := newRig(1, muontrap)
	pa := mem.Addr(0x100000)
	r.load(t, 0, 0x1000, pa, true)
	p := r.h.Port(0)
	p.CommitLoad(0x400100, 0x1000, pa)
	for i := 0; i < 300; i++ {
		r.sched.Tick()
	}
	l0 := p.FilterD().Snoop(pa)
	if l0 == nil || !l0.Committed {
		t.Fatal("filter line should be committed and retained")
	}
	l1 := p.L1DPeek(pa)
	if l1 == nil {
		t.Fatal("commit write-through did not reach L1")
	}
	if l1.State != cache.Exclusive {
		t.Fatalf("SE line should upgrade to E in L1, got %v", l1.State)
	}
	if p.L2Peek(pa) == nil {
		t.Fatal("inclusive L2 missing committed line")
	}
	if p.Stat(PCSEUpgrades) != 1 {
		t.Fatalf("SEUpgrades = %d, want 1", p.Stat(PCSEUpgrades))
	}
}

func TestCommitOfEvictedLineReloads(t *testing.T) {
	r := newRig(1, muontrap)
	p := r.h.Port(0)
	pa := mem.Addr(0x100000)
	r.load(t, 0, 0x1000, pa, true)
	// Evict it from the 2KiB 4-way L0 by loading 4 conflicting lines
	// (same set: stride = 32 lines * 64B with 8 sets -> 512B apart).
	setStride := uint64(p.FilterD().Lines() / 4 * mem.LineBytes)
	for i := uint64(1); i <= 4; i++ {
		r.load(t, 0, mem.VAddr(0x1000+i*setStride), pa+mem.Addr(i*setStride), true)
	}
	if p.FilterD().Snoop(pa) != nil {
		t.Fatal("setup: line should have been evicted from the L0")
	}
	p.CommitLoad(0x400100, 0x1000, pa)
	for i := 0; i < 500; i++ {
		r.sched.Tick()
	}
	if p.Stat(PCCommitReloads) != 1 {
		t.Fatalf("CommitReloads = %d, want 1", p.Stat(PCCommitReloads))
	}
	if p.L1DPeek(pa) == nil {
		t.Fatal("passive reload did not install the line in L1")
	}
}

func TestSpeculativeNACKOnRemoteExclusive(t *testing.T) {
	r := newRig(2, muontrap)
	shared := mem.Addr(0x2000_0000)
	sharedV := mem.VAddr(0x2000_0000)
	// Core 1 takes the line exclusively (committed store).
	r.store(t, 1, sharedV, shared)
	if l := r.h.Port(1).L1DPeek(shared); l == nil || l.State != cache.Modified {
		t.Fatal("setup: core 1 should hold the line M")
	}
	// Core 0's speculative load must be NACKed and change nothing.
	_, res := r.load(t, 0, sharedV, shared, true)
	if !res.NACK {
		t.Fatal("speculative load should be NACKed (paper §4.5)")
	}
	if l := r.h.Port(1).L1DPeek(shared); l == nil || l.State != cache.Modified {
		t.Fatal("NACKed access must not change the remote M line")
	}
	if r.h.Port(0).FilterD().Snoop(shared) != nil {
		t.Fatal("NACKed access must not fill the filter cache")
	}
	// Retried non-speculatively it succeeds and downgrades.
	_, res = r.load(t, 0, sharedV, shared, false)
	if res.NACK {
		t.Fatal("non-speculative retry must not NACK")
	}
	if l := r.h.Port(1).L1DPeek(shared); l == nil || l.State != cache.Shared {
		t.Fatalf("owner should be downgraded to S")
	}
}

func TestInsecureSpeculativeLoadDowngradesRemote(t *testing.T) {
	r := newRig(2, insecure)
	shared := mem.Addr(0x2000_0000)
	sharedV := mem.VAddr(0x2000_0000)
	r.store(t, 1, sharedV, shared)
	_, res := r.load(t, 0, sharedV, shared, true)
	if res.NACK {
		t.Fatal("insecure mode never NACKs")
	}
	if l := r.h.Port(1).L1DPeek(shared); l == nil || l.State != cache.Shared {
		t.Fatal("insecure speculative load should downgrade remote M — the attack-3 channel")
	}
}

func TestStoreUpgradeBroadcastsFilterInvalidate(t *testing.T) {
	shared := mem.Addr(0x2000_0000)
	sharedV := mem.VAddr(0x2000_0000)
	t.Run("two cores", func(t *testing.T) {
		r := newRig(2, muontrap)
		// Core 0 speculatively loads the line into its filter.
		r.load(t, 0, sharedV, shared, true)
		if r.h.Port(0).FilterD().Snoop(shared) == nil {
			t.Fatal("setup: filter should hold the line")
		}
		// Core 1 commits a store to it: broadcast must clear core 0's copy.
		r.store(t, 1, sharedV, shared)
		if r.h.Port(0).FilterD().Snoop(shared) != nil {
			t.Fatal("exclusive upgrade must invalidate other filter caches (§4.5)")
		}
		if r.h.ctr[filterBroadcasts] == 0 {
			t.Fatal("broadcast not counted")
		}
	})
	t.Run("three cores", func(t *testing.T) {
		// Every core holds the line in its filter; core 1's store drain
		// reaches cores 0 and 2 with one broadcast and leaves its own copy.
		r := newRig(3, muontrap)
		for c := 0; c < 3; c++ {
			r.load(t, c, sharedV, shared, true)
			if r.h.Port(c).FilterD().Snoop(shared) == nil {
				t.Fatalf("setup: core %d's filter should hold the line", c)
			}
		}
		r.store(t, 1, sharedV, shared)
		for _, c := range []int{0, 2} {
			if r.h.Port(c).FilterD().Snoop(shared) != nil {
				t.Fatalf("core %d's filter kept the line past the broadcast", c)
			}
		}
		if r.h.Port(1).FilterD().Snoop(shared) == nil {
			t.Fatal("the storing core's own filter copy was dropped")
		}
		if n := r.h.ctr[filterBroadcasts]; n != 1 {
			t.Fatalf("%d broadcasts counted, want 1", n)
		}
	})
}

func TestFigure7Accounting(t *testing.T) {
	r := newRig(1, muontrap)
	p := r.h.Port(0)
	pa := mem.Addr(0x300000)
	va := mem.VAddr(0x300000)
	// First store: nothing local -> upgrade counted.
	r.store(t, 0, va, pa)
	if p.Stat(PCStoreUpgrades) != 1 || p.Stat(PCStoreDrains) != 1 {
		t.Fatalf("upgrades/drains = %d/%d, want 1/1", p.Stat(PCStoreUpgrades), p.Stat(PCStoreDrains))
	}
	// Second store to the same line: already M locally -> no upgrade.
	r.store(t, 0, va, pa)
	if p.Stat(PCStoreUpgrades) != 1 || p.Stat(PCStoreDrains) != 2 {
		t.Fatalf("upgrades/drains = %d/%d, want 1/2", p.Stat(PCStoreUpgrades), p.Stat(PCStoreDrains))
	}
}

func TestStorePrefetchSpeedsDrain(t *testing.T) {
	// A store whose line was speculatively prefetched into the L0 drains
	// without a DRAM fetch (§4.5 "speeding up the write post-commit").
	rCold := newRig(1, muontrap)
	latCold := rCold.store(t, 0, 0x5000, 0x500000)

	rWarm := newRig(1, muontrap)
	rWarm.h.Port(0).StorePrefetch(0x400100, 0x5000, 0x500000)
	for i := 0; i < 5000 && !rWarm.h.Quiet(); i++ {
		rWarm.sched.Tick()
	}
	if !rWarm.h.Quiet() {
		t.Fatal("store prefetch did not complete")
	}
	latWarm := rWarm.store(t, 0, 0x5000, 0x500000)
	if latWarm >= latCold {
		t.Fatalf("prefetched store drain (%d) not faster than cold (%d)", latWarm, latCold)
	}
}

func TestDomainFlushClearsFilterState(t *testing.T) {
	r := newRig(1, muontrap)
	p := r.h.Port(0)
	r.load(t, 0, 0x1000, 0x100000, true)
	if p.FilterD().CountValid() == 0 {
		t.Fatal("setup: filter should hold a line")
	}
	p.FlushDomain()
	if p.FilterD().CountValid() != 0 {
		t.Fatal("domain flush left filter lines")
	}
}

func TestClearOnMisspec(t *testing.T) {
	m := muontrap
	m.ClearOnMisspec = true
	r := newRig(1, m)
	p := r.h.Port(0)
	r.load(t, 0, 0x1000, 0x100000, true)
	p.FlushOnMisspec()
	if p.FilterD().CountValid() != 0 {
		t.Fatal("misspec flush left filter lines")
	}
	// Disabled mode: no-op.
	r2 := newRig(1, muontrap)
	r2.load(t, 0, 0x1000, 0x100000, true)
	r2.h.Port(0).FlushOnMisspec()
	if r2.h.Port(0).FilterD().CountValid() == 0 {
		t.Fatal("FlushOnMisspec should be a no-op when mode disabled")
	}
}

func TestPrefetcherTrainsSpeculativelyWhenUnprotected(t *testing.T) {
	r := newRig(1, insecure)
	// Sequential misses train the stride prefetcher; the line beyond the
	// stream should appear in L2 without a demand access.
	base := mem.Addr(0x600000)
	for i := 0; i < 4; i++ {
		r.load(t, 0, mem.VAddr(0x6000+i*64), base+mem.Addr(i*64), true)
	}
	for i := 0; i < 400; i++ {
		r.sched.Tick()
	}
	if r.h.ctr[prefetchFills] == 0 {
		t.Fatal("prefetcher issued nothing for a sequential stream")
	}
	next := base + mem.Addr(4*64)
	if r.h.l2.Peek(uint64(next)) == nil {
		t.Fatal("prefetched line not in L2")
	}
}

func TestCommitPrefetchIgnoresSpeculativeStream(t *testing.T) {
	r := newRig(1, muontrap)
	base := mem.Addr(0x600000)
	for i := 0; i < 4; i++ {
		r.load(t, 0, mem.VAddr(0x6000+i*64), base+mem.Addr(i*64), true)
	}
	for i := 0; i < 400; i++ {
		r.sched.Tick()
	}
	if r.h.ctr[prefetchFills] != 0 {
		t.Fatal("commit-time prefetcher must not train on speculative accesses (§4.6)")
	}
	// Committing the loads trains it.
	for i := 0; i < 4; i++ {
		r.h.Port(0).CommitLoad(0x400100, mem.VAddr(0x6000+i*64), base+mem.Addr(i*64))
	}
	for i := 0; i < 600; i++ {
		r.sched.Tick()
	}
	if r.h.ctr[prefetchFills] == 0 {
		t.Fatal("commit notifications should train the prefetcher")
	}
}

func TestIfetchFilterBypassAndCommit(t *testing.T) {
	r := newRig(1, muontrap)
	p := r.h.Port(0)
	pa := mem.Addr(0x700000)
	done := false
	p.Ifetch(0x7000, pa, func(AccessResult) { done = true })
	r.run(t, &done, 5000)
	if p.L1IPeek(pa) != nil {
		t.Fatal("speculative ifetch must not fill L1I under MuonTrap")
	}
	if p.FilterI().Snoop(pa) == nil {
		t.Fatal("ifetch should fill the instruction filter cache")
	}
	p.CommitIfetch(pa)
	for i := 0; i < 200; i++ {
		r.sched.Tick()
	}
	if p.L1IPeek(pa) == nil {
		t.Fatal("committed instruction line should reach L1I")
	}
}

func TestInsecureIfetchFillsL1I(t *testing.T) {
	r := newRig(1, insecure)
	p := r.h.Port(0)
	pa := mem.Addr(0x700000)
	done := false
	p.Ifetch(0x7000, pa, func(AccessResult) { done = true })
	r.run(t, &done, 5000)
	if p.L1IPeek(pa) == nil {
		t.Fatal("insecure ifetch should fill L1I")
	}
}

// TestUnwaitedAccessParksNothing: an access nobody waits for — a fetch
// with a nil done (the next-line prefetch) or a speculative store's
// prefetch — moves the caches but schedules no delivery on a hit, and
// parks no waiter when it coalesces onto a live MSHR.
func TestUnwaitedAccessParksNothing(t *testing.T) {
	t.Run("ifetch hit", func(t *testing.T) {
		r := newRig(1, insecure)
		p := r.h.Port(0)
		pa := mem.Addr(0x700000)
		done := false
		p.Ifetch(0x7000, pa, func(AccessResult) { done = true })
		r.run(t, &done, 5000)
		r.settle(t)
		hits := p.Stat(PCL1IHits)
		p.Ifetch(0x7000, pa, nil)
		if p.Stat(PCL1IHits) != hits+1 {
			t.Fatal("setup: the fetch did not hit the L1I")
		}
		if n := r.sched.Pending(); n != 0 {
			t.Fatalf("an unwaited ifetch hit left %d events pending, want 0", n)
		}
	})
	t.Run("store prefetch hit", func(t *testing.T) {
		r := newRig(1, muontrap)
		p := r.h.Port(0)
		pa := mem.Addr(0x500000)
		r.load(t, 0, 0x5000, pa, false) // non-speculative: installs in the L1D
		p.FlushDomain()                 // so the prefetch misses the filter cache
		r.settle(t)
		hits := p.Stat(PCL1DHits)
		p.StorePrefetch(0x400100, 0x5000, pa)
		if p.Stat(PCL1DHits) != hits+1 {
			t.Fatal("setup: the store prefetch did not hit the L1D")
		}
		if n := r.sched.Pending(); n != 0 {
			t.Fatalf("a store prefetch hit left %d events pending, want 0", n)
		}
	})
	t.Run("ifetch coalesced on a live MSHR", func(t *testing.T) {
		r := newRig(1, insecure)
		p := r.h.Port(0)
		pa := mem.Addr(0x700000)
		done := false
		p.Ifetch(0x7000, pa, func(AccessResult) { done = true })
		m := p.l1iMSHRs.Lookup(uint64(pa))
		if m == nil {
			t.Fatal("setup: the primary fetch holds no L1I MSHR")
		}
		parked := p.parked.live()
		p.Ifetch(0x7000, pa, nil)
		if n := p.parked.live(); n != parked {
			t.Fatalf("an unwaited coalesced ifetch parked %d completions, want 0", n-parked)
		}
		if m.Waiters() != 0 {
			t.Fatalf("the MSHR holds %d waiters, want 0", m.Waiters())
		}
		r.run(t, &done, 5000)
		if err := r.h.Quiesced(); err != nil {
			t.Fatalf("after the primary fill: %v", err)
		}
	})
}

func TestTranslateWalksAndFilterTLB(t *testing.T) {
	r := newRig(1, muontrap)
	p := r.h.Port(0)
	var pa mem.Addr
	var walked bool
	done := false
	p.Translate(0x1000, false, true, func(a mem.Addr, w, fault bool) {
		pa, walked = a, w
		if fault {
			t.Error("unexpected fault")
		}
		done = true
	})
	r.run(t, &done, 5000)
	if !walked {
		t.Fatal("first translation should walk")
	}
	if pa != mem.Addr(((1<<8)+1)<<mem.PageShift) {
		t.Fatalf("paddr = %#x", pa)
	}
	// The speculative walk fills the filter TLB, not the main TLB: after a
	// domain flush the translation must walk again.
	p.FlushDomain()
	done = false
	p.Translate(0x1000, false, true, func(a mem.Addr, w, fault bool) { walked = w; done = true })
	r.run(t, &done, 5000)
	if !walked {
		t.Fatal("translation should re-walk after domain flush (filter TLB cleared)")
	}
	// Committing the translation promotes it to the main TLB: it now
	// survives a flush.
	p.CommitTranslation(0x1000, false)
	p.FlushDomain()
	done = false
	p.Translate(0x1000, false, true, func(a mem.Addr, w, fault bool) { walked = w; done = true })
	r.run(t, &done, 5000)
	if walked {
		t.Fatal("committed translation should be in the main TLB")
	}
}

func TestTranslateFault(t *testing.T) {
	r := newRig(1, muontrap)
	done := false
	var fault bool
	r.h.Port(0).Translate(0x7000_0000, false, true, func(a mem.Addr, w, f bool) {
		fault = f
		done = true
	})
	r.run(t, &done, 5000)
	if !fault {
		t.Fatal("unmapped page should fault")
	}
}

func TestInvisiSpecNoFillLeavesNoTrace(t *testing.T) {
	r := newRig(1, insecure)
	p := r.h.Port(0)
	pa := mem.Addr(0x100000)
	cl := &walkClient{}
	p.SetClient(cl)
	p.LoadNoFill(pa, 0, 1)
	r.run(t, &cl.loaded, 5000)
	if p.L1DPeek(pa) != nil || p.L2Peek(pa) != nil {
		t.Fatal("LoadNoFill must not install anywhere")
	}
	// Exposure installs normally.
	cl.loaded = false
	p.LoadExpose(0x400100, 0x1000, pa, 0, 1)
	r.run(t, &cl.loaded, 5000)
	if p.L1DPeek(pa) == nil {
		t.Fatal("LoadExpose should fill L1D")
	}
}

func TestCoherenceInvariantsAfterMixedTraffic(t *testing.T) {
	for _, mode := range []Mode{insecure, muontrap, fcache} {
		r := newRig(4, mode)
		shared := mem.Addr(0x2000_0000)
		for i := 0; i < 40; i++ {
			c := i % 4
			a := shared + mem.Addr((i%8)*64)
			v := mem.VAddr(0x2000_0000 + uint64((i%8)*64))
			if i%3 == 0 {
				r.store(t, c, v, a)
			} else {
				_, res := r.load(t, c, v, a, true)
				if res.NACK {
					r.load(t, c, v, a, false)
				} else if mode.FilterProtect {
					r.h.Port(c).CommitLoad(0x400100, v, a)
				}
			}
			for k := 0; k < 50; k++ {
				r.sched.Tick()
			}
		}
		for k := 0; k < 500; k++ {
			r.sched.Tick()
		}
		if msg := r.h.CheckInvariants(); msg != "" {
			t.Fatalf("mode %+v: %s", mode, msg)
		}
	}
}

func TestMSHRCoalescingAcrossRequests(t *testing.T) {
	r := newRig(1, insecure)
	p := r.h.Port(0)
	pa := mem.Addr(0x100000)
	n := 0
	for i := 0; i < 3; i++ {
		p.Load(0x400100, 0x1000, pa, true, func(AccessResult) { n++ })
	}
	for i := 0; i < 2000 && n < 3; i++ {
		r.sched.Tick()
	}
	if n != 3 {
		t.Fatalf("completions = %d, want 3", n)
	}
	if r.h.ctr[dramFills] != 1 {
		t.Fatalf("DRAM fills = %d, want 1 (coalesced)", r.h.ctr[dramFills])
	}
}

func TestVulnerableFilterTakesExclusive(t *testing.T) {
	// The fcache-only stage (no coherence protections): a sole-copy fill
	// takes E in the filter — the state attack 4 exploits.
	m := Mode{L0Data: true, FilterProtect: true}
	r := newRig(2, m)
	shared := mem.Addr(0x2000_0000)
	r.load(t, 0, 0x2000_0000, shared, true)
	l := r.h.Port(0).FilterD().Snoop(shared)
	if l == nil || l.State != cache.Exclusive {
		t.Fatalf("vulnerable design should take E, got %v", l)
	}
	// A second core's access pays the downgrade penalty. Warm the DRAM
	// row identically in both rigs (a different line in the same bank and
	// row) so the comparison isolates the coherence effect.
	latWith, _ := r.load(t, 1, 0x2000_0000, shared, true)

	r2 := newRig(2, m)
	r2.load(t, 0, 0x2000_0200, shared+0x200, true) // same DRAM row, other line
	latWithout, _ := r2.load(t, 1, 0x2000_0000, shared, true)
	if latWith <= latWithout {
		t.Fatalf("remote filter-E downgrade should cost time: with=%d without=%d", latWith, latWithout)
	}
}

func TestFilterSEDoesNotDelayOtherCores(t *testing.T) {
	// With coherence protections, a filter's SE line is protocol-S: other
	// cores' accesses take identical time whether or not the victim's
	// filter holds the line (the attack-4 defense).
	r := newRig(2, muontrap)
	shared := mem.Addr(0x2000_0000)
	r.load(t, 0, 0x2000_0000, shared, true) // victim fills SE
	latWith, res := r.load(t, 1, 0x2000_0000, shared, true)
	if res.NACK {
		t.Fatal("protocol-shared filter line must not NACK other cores")
	}
	r2 := newRig(2, muontrap)
	// Equalise DRAM row-buffer state (same bank+row, different line): the
	// cache-level timing must be identical either way.
	r2.load(t, 0, 0x2000_0200, shared+0x200, true)
	latWithout, _ := r2.load(t, 1, 0x2000_0000, shared, true)
	if latWith != latWithout {
		t.Fatalf("SE filter line leaked timing: with=%d without=%d", latWith, latWithout)
	}
}
