package memsys

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/event"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

// Hierarchy is the whole memory system below the cores: shared L2, DRAM,
// stride prefetcher and the per-core Ports. Nothing here records which
// private caches hold a line: each L1 and filter cache is the only record
// of its contents. Coherence asks the L1Ds and data filter caches
// (holders), and invalidation reaches the filter caches by broadcast.
type Hierarchy struct {
	cfg   Config
	sched *event.Scheduler
	Phys  *mem.Physical
	dram  *mem.DRAM

	l2         *cache.Array
	l2MSHRs    *cache.MSHRFile
	l2PortFree event.Cycle

	pf *prefetch.Prefetcher

	ports []*Port

	// ctr holds the counters hierCounters declares, indexed by hierCounter.
	ctr [numHierCounters]uint64
}

// New builds the hierarchy and its per-core ports.
func New(sched *event.Scheduler, phys *mem.Physical, cfg Config) *Hierarchy {
	if cfg.Cores <= 0 {
		panic(fmt.Sprintf("memsys: bad core count %d", cfg.Cores))
	}
	h := &Hierarchy{
		cfg:     cfg,
		sched:   sched,
		Phys:    phys,
		dram:    mem.NewDRAM(sched, cfg.DRAM),
		l2:      cache.NewArray(cfg.L2),
		l2MSHRs: cache.NewMSHRFile(cfg.L2MSHRs),
		pf:      prefetch.New(cfg.Prefetch),
	}
	h.pf.Issue = h.prefetchFill
	for i := 0; i < cfg.Cores; i++ {
		h.ports = append(h.ports, newPort(h, i))
	}
	return h
}

// Release ends the hierarchy's life: every cache array goes back to be
// borrowed by the next machine's. Any later access to a cache panics; a
// second Release does nothing.
func (h *Hierarchy) Release() {
	h.l2.Release()
	for _, p := range h.ports {
		p.l1d.Release()
		p.l1i.Release()
		if p.l0d != nil {
			p.l0d.Release()
		}
		if p.l0i != nil {
			p.l0i.Release()
		}
	}
}

// Port returns core i's memory port.
func (h *Hierarchy) Port(i int) *Port { return h.ports[i] }

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Scheduler returns the event scheduler driving the hierarchy.
func (h *Hierarchy) Scheduler() *event.Scheduler { return h.sched }

// --- L2 / coherence helpers ---

// holders snoops every core's L1D and data filter cache for line: owner
// is the core holding it E or M in either (-1 when none), sharers the
// bitmask of cores whose L1D holds it S. A filter line is owned only in
// the vulnerable "fcache only" design without coherence protections —
// exactly the state attack 4 exploits. A snoop is a Peek, so asking moves
// no replacement decision.
func (h *Hierarchy) holders(line uint64) (owner int, sharers uint64) {
	owner = -1
	for i, p := range h.ports {
		if l := p.l1d.Peek(line); l != nil {
			if l.State.Owned() {
				owner = i
			} else {
				sharers |= 1 << uint(i)
			}
		}
		if l := p.ownedFilterLine(line); l != nil {
			owner = i
		}
	}
	return owner, sharers
}

// l2PortDelay charges L2 port occupancy and returns the queueing delay.
func (h *Hierarchy) l2PortDelay() event.Cycle {
	now := h.sched.Now()
	start := now
	if h.l2PortFree > start {
		start = h.l2PortFree
	}
	h.l2PortFree = start + h.cfg.Lat.L2Port
	return start - now
}

// l2Install brings a line into the L2 (clean unless dirty), handling
// inclusive back-invalidation of any L1 copies of the evicted victim.
func (h *Hierarchy) l2Install(line uint64, dirty bool) {
	st := cache.Shared
	if dirty {
		st = cache.Modified
	}
	if l := h.l2.Peek(line); l != nil {
		if dirty {
			l.State = cache.Modified
		}
		return
	}
	_, ev, had := h.l2.Fill(line, st)
	if had {
		h.backInvalidate(ev.Tag)
		if ev.State == cache.Modified {
			h.ctr[l2Writebacks]++
			h.ctr[dramAccesses]++
			h.dram.Access(mem.Addr(ev.Tag))
		}
	}
}

// backInvalidate removes every L1 (I and D) copy of an evicted L2 line to
// preserve inclusion.
func (h *Hierarchy) backInvalidate(line uint64) {
	for _, p := range h.ports {
		p.l1d.InvalidateLine(line)
		p.l1i.InvalidateLine(line)
	}
}

// downgradeOwner moves whichever of owner's L1D and data filter copies of
// line is owned to S, writing an M L1D copy back to the L2.
func (h *Hierarchy) downgradeOwner(line uint64, owner int) {
	p := h.ports[owner]
	if l := p.l1d.Peek(line); l != nil && l.State.Owned() {
		if l.State == cache.Modified {
			h.dirtyL2(line)
		}
		l.State = cache.Shared
	}
	if l := p.ownedFilterLine(line); l != nil {
		l.State = cache.Shared
	}
	h.ctr[remoteDowngrades]++
}

// dirtyL2 marks the L2 copy of line Modified: an L1 wrote the line, or
// gave up its dirty copy.
func (h *Hierarchy) dirtyL2(line uint64) {
	if l2 := h.l2.Peek(line); l2 != nil {
		l2.State = cache.Modified
	}
}

// invalidateSharers drops every L1D copy and every owned data filter copy
// except the requester's, writing back a dirty L1D one.
func (h *Hierarchy) invalidateSharers(line uint64, except int) {
	for i, p := range h.ports {
		if i == except {
			continue
		}
		if p.l1d.InvalidateLine(line) == cache.Modified {
			h.dirtyL2(line)
		}
		if p.ownedFilterLine(line) != nil {
			p.l0d.Invalidate(mem.Addr(line))
		}
	}
}

// broadcastFilterInvalidate drops the line from every data filter cache
// except the requester's (§4.5: exclusive upgrades must invalidate filter
// copies). It is a broadcast, so nothing tracks which filter caches hold
// the line: one that does not simply has nothing to drop.
func (h *Hierarchy) broadcastFilterInvalidate(line uint64, except int) {
	h.ctr[filterBroadcasts]++
	for i, p := range h.ports {
		if i != except && p.l0d != nil {
			p.l0d.Invalidate(mem.Addr(line))
		}
	}
}

// exclusiveAtFill decides, at fill-completion time, whether core may take
// a data line exclusively. A foreign owner that appeared while the fill
// was in flight is downgraded (the fill serialises after it). All state-
// changing coherence decisions happen at completion events so concurrent
// transactions to the same line are totally ordered by the event queue.
func (h *Hierarchy) exclusiveAtFill(line uint64, core int) bool {
	owner, sharers := h.holders(line)
	if owner >= 0 && owner != core {
		h.downgradeOwner(line, owner)
		return false
	}
	return sharers&^(1<<uint(core)) == 0
}

// fillState is the state a non-speculative data fill completing now
// takes: Exclusive when core may take the line exclusively
// (exclusiveAtFill), else Shared.
func (h *Hierarchy) fillState(line uint64, core int) cache.State {
	if h.exclusiveAtFill(line, core) {
		return cache.Exclusive
	}
	return cache.Shared
}

// sharedAtFill prepares installing a line Shared at completion time,
// downgrading a foreign owner that appeared meanwhile.
func (h *Hierarchy) sharedAtFill(line uint64, core int) {
	if owner, _ := h.holders(line); owner >= 0 && owner != core {
		h.downgradeOwner(line, owner)
	}
}

// prefetchFill is the prefetcher's issue callback: bring a line into the
// L2 asynchronously. The fill arrives as the hierarchy's event.
func (h *Hierarchy) prefetchFill(addr mem.Addr) {
	line := uint64(mem.LineAddr(addr))
	if h.l2.Peek(line) != nil {
		return
	}
	if _, ok := h.l2MSHRs.Allocate(line, cache.NoWaiter); !ok {
		return // prefetches are best-effort; drop on MSHR pressure
	}
	done := h.dram.Access(mem.Addr(line))
	h.ctr[prefetchFills]++
	h.ctr[dramAccesses]++
	h.sched.AtEvent(done+h.cfg.Lat.DRAMCtrl, h, 0, line, 0)
}

// HandleEvent fires the hierarchy's one event, a prefetch fill: line a1
// has arrived from DRAM, so its L2 MSHR frees and it fills the L2.
func (h *Hierarchy) HandleEvent(_ int32, line, _ uint64) {
	h.l2MSHRs.Complete(line)
	h.l2Install(line, false)
}

// dramWait issues a DRAM access for line and returns how long after now
// its data arrives.
func (h *Hierarchy) dramWait(line uint64) event.Cycle {
	h.ctr[dramAccesses]++
	if done := h.dram.Access(mem.Addr(line)); done > h.sched.Now() {
		return done - h.sched.Now()
	}
	return 0
}

// loadOutcome is the result of the shared-level (coherence/L2/DRAM) part
// of a load transaction.
type loadOutcome struct {
	nack     bool
	extraLat event.Cycle
	level    FillLevel
}

// l2LoadAccess performs the shared-level work for a (data or translation)
// read by coreID. spec marks the request speculative; fillL2 controls
// whether a DRAM fill installs into the L2 (speculative fills under
// FilterProtect must bypass it, §4.1); train lets the access at pc train
// the conventional prefetcher.
func (h *Hierarchy) l2LoadAccess(coreID int, line uint64, spec, fillL2 bool, pc uint64, train bool) loadOutcome {
	var out loadOutcome
	m := h.cfg.Mode

	if owner, _ := h.holders(line); owner >= 0 && owner != coreID {
		// A remote L1D or filter cache holds the line E or M. A remote
		// filter owner is the attack-4 surface: downgrading it takes
		// observable time.
		if spec && m.FilterProtect && m.CoherenceProtect {
			// §4.5 reduced coherency speculation: refuse, constant time.
			h.ctr[cohNACKs]++
			out.nack = true
			out.extraLat = h.cfg.Lat.SnoopNACK
			return out
		}
		h.downgradeOwner(line, owner)
		out.extraLat += h.cfg.Lat.RemoteWB
	}

	out.extraLat += h.l2PortDelay()
	if train && !m.CommitPrefetch {
		// Conventional prefetcher: trained by every access the L2 sees,
		// speculative or not — the attack-5 side channel.
		h.pf.Observe(pc, mem.Addr(line))
	}
	if l2l := h.l2.Lookup(line); l2l != nil {
		h.ctr[l2Hits]++
		out.extraLat += h.cfg.Lat.L2Hit
		out.level = FromL2
	} else {
		h.ctr[l2Misses]++
		h.ctr[dramFills]++
		out.extraLat += h.cfg.Lat.L2Hit + h.cfg.Lat.DRAMCtrl + h.dramWait(line)
		out.level = FromMem
		if fillL2 {
			h.l2Install(line, false)
		}
	}
	return out
}

// EvictLine removes a line from the L2 and (by inclusion) every L1 —
// the attack harness's stand-in for an attacker evicting a victim line by
// set contention, which is always possible on a shared L2. Filter caches
// are non-inclusive non-exclusive and private, so an attacker cannot touch
// them: L0 copies survive.
func (h *Hierarchy) EvictLine(pa mem.Addr) {
	line := uint64(mem.LineAddr(pa))
	h.backInvalidate(line)
	h.l2.InvalidateLine(line)
}

// L2SetIndex exposes the L2 set index of a physical address so attack
// scenarios can construct same-set prime/probe conflicts.
func (h *Hierarchy) L2SetIndex(pa mem.Addr) uint64 {
	return h.l2.SetIndex(uint64(pa))
}

// CheckInvariants verifies the cross-cache coherence invariants; tests
// call it after randomised workloads. It returns a descriptive error
// string, or "" when all invariants hold.
func (h *Hierarchy) CheckInvariants() string {
	// 1. At most one core owns a line across its L1D and data filter
	// cache, and no L1D shares it alongside an owner.
	owners := map[uint64]int{}
	for i, p := range h.ports {
		var bad string
		own := func(l *cache.Line) {
			if l.State.Owned() {
				if prev, dup := owners[l.Tag]; dup && prev != i {
					bad = fmt.Sprintf("line %#x owned by cores %d and %d", l.Tag, prev, i)
				}
				owners[l.Tag] = i
			}
		}
		p.l1d.ForEach(own)
		if p.l0d != nil {
			p.l0d.ForEach(own)
		}
		if bad != "" {
			return bad
		}
	}
	for i, p := range h.ports {
		var bad string
		p.l1d.ForEach(func(l *cache.Line) {
			if l.State == cache.Shared {
				if o, ok := owners[l.Tag]; ok && o != i {
					bad = fmt.Sprintf("line %#x shared in core %d while owned by core %d", l.Tag, i, o)
				}
			}
		})
		if bad != "" {
			return bad
		}
	}
	// 2. Inclusion: every L1 line is present in the L2.
	for i, p := range h.ports {
		var bad string
		check := func(l *cache.Line) {
			if h.l2.Peek(l.Tag) == nil {
				bad = fmt.Sprintf("L1 line %#x of core %d not in L2 (inclusion)", l.Tag, i)
			}
		}
		p.l1d.ForEach(check)
		p.l1i.ForEach(check)
		if bad != "" {
			return bad
		}
	}
	// 3. Filter caches only ever hold protocol-shared lines when coherence
	// protections are on.
	if h.cfg.Mode.CoherenceProtect {
		for i, p := range h.ports {
			var bad string
			check := func(l *cache.Line) {
				if l.State.Owned() {
					bad = fmt.Sprintf("filter line %#x of core %d in owned state %v", l.Tag, i, l.State)
				}
			}
			if p.l0d != nil {
				p.l0d.ForEach(check)
			}
			if p.l0i != nil {
				p.l0i.ForEach(check)
			}
			if bad != "" {
				return bad
			}
		}
	}
	return ""
}
