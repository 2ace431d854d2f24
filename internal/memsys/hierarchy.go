package memsys

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/event"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

// dirEntry is the directory state for one line resident in the L2.
// The L2 is inclusive of every L1, so presence in any L1 implies a dirEntry.
type dirEntry struct {
	owner      int // core whose L1D holds the line E or M; -1 when none
	ownerState cache.State
	sharers    uint64 // bitmask of cores with the line S in their L1D
	isharers   uint64 // bitmask of cores with the line in their L1I
}

func (e *dirEntry) empty() bool {
	return e.owner < 0 && e.sharers == 0 && e.isharers == 0
}

// Hierarchy is the whole memory system below the cores: shared L2 with
// directory, DRAM, stride prefetcher and the per-core Ports. Nothing here
// records which filter caches hold a line: each filter cache is the only
// record of its contents, and invalidation reaches them by broadcast.
type Hierarchy struct {
	cfg   Config
	sched *event.Scheduler
	Phys  *mem.Physical
	dram  *mem.DRAM

	l2         *cache.Array
	l2MSHRs    *cache.MSHRFile
	dir        map[uint64]*dirEntry
	l2PortFree event.Cycle

	pf *prefetch.Prefetcher

	ports []*Port

	// filterOwner records a data filter cache holding a line exclusively —
	// only possible in the vulnerable "fcache only" configuration without
	// coherence protections, and exactly the state attack 4 exploits.
	// It is not a mirror of the filter caches and cannot be derived by
	// snooping them: a speculative fcache fill decides exclusivity from
	// the L1 directory alone, so more than one filter cache can hold a
	// line E at once, and the map names the last to fill it. Snooping
	// instead moves the timing matrix's streamcluster/fcache cell from
	// 45824 to 45888 cycles.
	filterOwner map[uint64]int

	// ctr holds the counters hierCounters declares, indexed by hierCounter.
	ctr [numHierCounters]uint64
}

// New builds the hierarchy and its per-core ports.
func New(sched *event.Scheduler, phys *mem.Physical, cfg Config) *Hierarchy {
	if cfg.Cores <= 0 {
		panic(fmt.Sprintf("memsys: bad core count %d", cfg.Cores))
	}
	h := &Hierarchy{
		cfg:         cfg,
		sched:       sched,
		Phys:        phys,
		dram:        mem.NewDRAM(sched, cfg.DRAM),
		l2:          cache.NewArray(cfg.L2),
		l2MSHRs:     cache.NewMSHRFile(cfg.L2MSHRs),
		dir:         make(map[uint64]*dirEntry),
		filterOwner: make(map[uint64]int),
	}
	if cfg.PrefetchEnabled {
		h.pf = prefetch.New(cfg.Prefetch)
		h.pf.Issue = h.prefetchFill
	}
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

// --- L2 / directory helpers ---

func (h *Hierarchy) dirFor(line uint64) *dirEntry {
	e := h.dir[line]
	if e == nil {
		e = &dirEntry{owner: -1}
		h.dir[line] = e
	}
	return e
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
			h.dram.Access(mem.Addr(ev.Tag))
		}
	}
}

// backInvalidate removes every L1 (I and D) copy of an evicted L2 line to
// preserve inclusion, writing back a dirty owner's data state.
func (h *Hierarchy) backInvalidate(line uint64) {
	e := h.dir[line]
	if e == nil {
		return
	}
	for i, p := range h.ports {
		bit := uint64(1) << uint(i)
		if e.owner == i || e.sharers&bit != 0 {
			p.l1d.InvalidateLine(line)
		}
		if e.isharers&bit != 0 {
			p.l1i.InvalidateLine(line)
		}
	}
	delete(h.dir, line)
}

// downgradeOwner moves a remote owner's line to S (writing back if M) and
// reports whether a downgrade happened.
func (h *Hierarchy) downgradeOwner(line uint64, e *dirEntry) bool {
	if e.owner < 0 {
		return false
	}
	p := h.ports[e.owner]
	if l := p.l1d.Peek(line); l != nil {
		if l.State == cache.Modified {
			if l2 := h.l2.Peek(line); l2 != nil {
				l2.State = cache.Modified
			}
		}
		l.State = cache.Shared
	}
	e.sharers |= 1 << uint(e.owner)
	e.owner = -1
	e.ownerState = cache.Invalid
	h.ctr[remoteDowngrades]++
	return true
}

// invalidateSharers drops every L1D copy except the requester's, writing
// back a dirty owner. Returns true when any remote copy existed.
func (h *Hierarchy) invalidateSharers(line uint64, except int) bool {
	e := h.dir[line]
	if e == nil {
		return false
	}
	any := false
	if e.owner >= 0 && e.owner != except {
		p := h.ports[e.owner]
		if l := p.l1d.Peek(line); l != nil {
			if l.State == cache.Modified {
				if l2 := h.l2.Peek(line); l2 != nil {
					l2.State = cache.Modified
				}
			}
		}
		p.l1d.InvalidateLine(line)
		e.owner = -1
		e.ownerState = cache.Invalid
		any = true
	}
	for i, p := range h.ports {
		bit := uint64(1) << uint(i)
		if i != except && e.sharers&bit != 0 {
			p.l1d.InvalidateLine(line)
			e.sharers &^= bit
			any = true
		}
	}
	return any
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
	if o, ok := h.filterOwner[line]; ok && o != except {
		delete(h.filterOwner, line)
	}
}

// noteFilterDrop forgets coreID's exclusive filter copy of line, if the
// line was one.
func (h *Hierarchy) noteFilterDrop(line uint64, coreID int) {
	if o, ok := h.filterOwner[line]; ok && o == coreID {
		delete(h.filterOwner, line)
	}
}

// exclusiveAtFill decides, at fill-completion time, whether core may take
// a data line exclusively. A foreign owner that appeared while the fill
// was in flight is downgraded (the fill serialises after it). All state-
// changing coherence decisions happen at completion events so concurrent
// transactions to the same line are totally ordered by the event queue.
func (h *Hierarchy) exclusiveAtFill(line uint64, core int) bool {
	e := h.dir[line]
	if e == nil {
		return true
	}
	if e.owner >= 0 && e.owner != core {
		h.downgradeOwner(line, e)
		return false
	}
	return e.sharers&^(1<<uint(core)) == 0
}

// sharedAtFill prepares installing a line Shared at completion time,
// downgrading a foreign owner that appeared meanwhile.
func (h *Hierarchy) sharedAtFill(line uint64, core int) {
	if e := h.dir[line]; e != nil && e.owner >= 0 && e.owner != core {
		h.downgradeOwner(line, e)
	}
}

// prefetchFill is the prefetcher's issue callback: bring a line into the
// L2 asynchronously.
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
	h.sched.At(done+h.cfg.Lat.DRAMCtrl, func() {
		h.l2MSHRs.Complete(line)
		h.l2Install(line, false)
	})
}

// dramWait issues a DRAM access for line and returns how long after now
// its data arrives.
func (h *Hierarchy) dramWait(line uint64) event.Cycle {
	if done := h.dram.Access(mem.Addr(line)); done > h.sched.Now() {
		return done - h.sched.Now()
	}
	return 0
}

// loadOutcome is the result of the shared-level (L2/directory/DRAM) part
// of a load transaction.
type loadOutcome struct {
	nack      bool
	extraLat  event.Cycle
	level     FillLevel
	exclusive bool // no other private cache holds the line
}

// l2LoadAccess performs the shared-level work for a (data or translation)
// read by coreID. spec marks the request speculative; instr routes
// instruction fetches (no coherence, tracked in isharers at L1 fill time).
// fillL2 controls whether a DRAM fill installs into the L2 (speculative
// fills under FilterProtect must bypass it, §4.1).
func (h *Hierarchy) l2LoadAccess(coreID int, line uint64, spec, fillL2 bool, pc uint64, train bool) loadOutcome {
	var out loadOutcome
	m := h.cfg.Mode

	e := h.dir[line]
	if e != nil && e.owner >= 0 && e.owner != coreID {
		// A remote private cache holds the line E or M.
		if spec && m.FilterProtect && m.CoherenceProtect {
			// §4.5 reduced coherency speculation: refuse, constant time.
			h.ctr[cohNACKs]++
			out.nack = true
			out.extraLat = h.cfg.Lat.SnoopNACK
			return out
		}
		h.downgradeOwner(line, e)
		out.extraLat += h.cfg.Lat.RemoteWB
	}
	// Attack-4 surface: in the vulnerable no-coherence-protection filter
	// design, a *filter* cache may hold the line exclusively; a cross-core
	// access must downgrade it, which takes observable time.
	if o, ok := h.filterOwner[line]; ok && o != coreID {
		if p := h.ports[o]; p.l0d != nil {
			if l := p.l0d.Snoop(mem.Addr(line)); l != nil {
				l.State = cache.Shared
			}
		}
		delete(h.filterOwner, line)
		out.extraLat += h.cfg.Lat.RemoteWB
	}

	out.extraLat += h.l2PortDelay()
	if h.pf != nil && train && !m.CommitPrefetch {
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
	e = h.dir[line] // may have been created/cleared by install paths
	out.exclusive = e == nil || (e.owner < 0 && e.sharers == 0)
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
	// 1. At most one L1D owner per line, and no sharers alongside it.
	owners := map[uint64]int{}
	for i, p := range h.ports {
		var bad string
		p.l1d.ForEach(func(l *cache.Line) {
			if l.State.Owned() {
				if prev, dup := owners[l.Tag]; dup {
					bad = fmt.Sprintf("line %#x owned by cores %d and %d", l.Tag, prev, i)
				}
				owners[l.Tag] = i
			}
		})
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
