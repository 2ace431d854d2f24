package memsys

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/mem"
	"repro/internal/tlb"
)

// Client receives typed completions for the allocation-free request paths
// (TranslateC/LoadC/LoadNoFillC/IfetchC). The out-of-order core implements
// it; requests carry a (pool index, seq) pair — or (fetch sentinel, epoch)
// for instruction fetches — that the client validates against recycling.
type Client interface {
	TranslateDone(idx int32, seq uint64, paddr mem.Addr, walked, fault bool)
	LoadDone(idx int32, seq uint64, res AccessResult)
	IfetchDone(epoch uint64, res AccessResult)
}

// Port is one core's window onto the memory system: its filter caches,
// L1 caches and TLBs, plus the operations the pipeline invokes. All
// operations complete through parked callbacks or typed client
// notifications, delivered by typed events on the hierarchy's scheduler;
// none block.
type Port struct {
	h  *Hierarchy
	id int

	client Client

	l0d *core.FilterCache // nil unless Mode.L0Data
	l0i *core.FilterCache // nil unless Mode.L0Inst
	l1d *cache.Array
	l1i *cache.Array

	l1dMSHRs *cache.MSHRFile
	l1iMSHRs *cache.MSHRFile

	dtlb  *tlb.TLB
	itlb  *tlb.TLB
	fdtlb *tlb.TLB // filter TLB; nil unless Mode.FilterTLB

	pt   *tlb.PageTable
	asid uint64

	ctr [numPortCounters]uint64

	// What the port parks under an event argument, each kind in its own
	// slot registry so a delivery carries a slot number, never a boxed
	// value:
	//   - cbs, vcbs: completion callbacks awaiting their delivery event;
	//   - mwait: MSHR-coalesced waiters, data and instruction alike, the
	//     slot handed to the MSHR file and retrieved by the wake-up at
	//     fill time;
	//   - walks: hardware page-table walks, whose per-level reads complete
	//     back into walkStep through a typed comp route;
	//   - misses: what an L1D or L1I miss's scheduled retry, NACK or fill
	//     needs when it fires.
	cbs    slots[func(AccessResult)]
	vcbs   slots[func()]
	mwait  slots[comp]
	walks  slots[ptwalk]
	misses slots[dmiss]
}

// dmiss is one L1D or L1I miss parked until its event fires: the whole
// access when it must be retried (front MSHR file full), or what the
// completion needs when the NACK or the fill arrives. An instruction miss
// uses vaddr, paddr, level, mshrs and cm only.
type dmiss struct {
	pc    uint64
	vaddr mem.VAddr
	paddr mem.Addr
	spec  bool
	train bool
	level FillLevel
	mshrs *cache.MSHRFile
	cm    comp
}

// ptwalk is one in-flight hardware page-table walk: the translation being
// resolved, the walker's per-level read addresses, how many levels have
// completed, and the parked original completion.
type ptwalk struct {
	vaddr mem.VAddr
	vpn   uint64
	pfn   uint64
	addrs [tlb.WalkDepth]mem.Addr
	next  int8
	spec  bool
	instr bool
	cm    tcomp
}

// mshrWaker delivers the MSHR wake-ups (loads, page-walk reads and
// instruction fetches) parked in the port's comp slots.
type mshrWaker struct{ p *Port }

func (wk mshrWaker) MSHRWake(slot int32) {
	wk.p.completeNow(wk.p.mwait.take(slot), AccessResult{Level: FromL2})
}

func newPort(h *Hierarchy, id int) *Port {
	cfg := h.cfg
	p := &Port{
		h:        h,
		id:       id,
		l1d:      cache.NewArray(cfg.L1D),
		l1i:      cache.NewArray(cfg.L1I),
		l1dMSHRs: cache.NewMSHRFile(cfg.L1DMSHRs),
		l1iMSHRs: cache.NewMSHRFile(cfg.L1IMSHRs),
		dtlb:     tlb.New("dtlb", cfg.TLBEntries),
		itlb:     tlb.New("itlb", cfg.TLBEntries),
	}
	if cfg.Mode.L0Data {
		c := cfg.L0D
		p.l0d = core.NewFilterCache(c)
	}
	if cfg.Mode.L0Inst {
		c := cfg.L0I
		p.l0i = core.NewFilterCache(c)
	}
	if cfg.Mode.FilterTLB {
		p.fdtlb = tlb.New("fdtlb", cfg.FilterTLBEntries)
	}
	p.l1dMSHRs.SetWaker(mshrWaker{p})
	p.l1iMSHRs.SetWaker(mshrWaker{p})
	if p.l0d != nil {
		p.l0d.MSHRs.SetWaker(mshrWaker{p})
	}
	if p.l0i != nil {
		p.l0i.MSHRs.SetWaker(mshrWaker{p})
	}
	return p
}

// SetClient installs the typed-completion receiver (the owning core).
func (p *Port) SetClient(cl Client) { p.client = cl }

// SetProcess installs the address space the port translates for.
func (p *Port) SetProcess(asid uint64, pt *tlb.PageTable) {
	p.asid = asid
	p.pt = pt
}

// ASID returns the current address-space ID.
func (p *Port) ASID() uint64 { return p.asid }

// FilterD returns the data filter cache (may be nil).
func (p *Port) FilterD() *core.FilterCache { return p.l0d }

// FilterI returns the instruction filter cache (may be nil).
func (p *Port) FilterI() *core.FilterCache { return p.l0i }

// L1DPeek reports whether paddr is present in this core's L1D (test hook).
func (p *Port) L1DPeek(paddr mem.Addr) *cache.Line { return p.l1d.Peek(uint64(paddr)) }

// L1IPeek reports whether paddr is present in this core's L1I (test hook).
func (p *Port) L1IPeek(paddr mem.Addr) *cache.Line { return p.l1i.Peek(uint64(paddr)) }

// L2Peek reports whether paddr is present in the shared L2 (test hook).
func (p *Port) L2Peek(paddr mem.Addr) *cache.Line { return p.h.l2.Peek(uint64(paddr)) }

// --- Typed event plumbing (event.Handler) ---

// Port event ops.
const (
	popDeliverAccess    int32 = iota // a1 = cb slot, a2 = encoded AccessResult
	popDeliverVoid                   // a1 = vcb slot
	popLoadDone                      // a1 = idx | res<<32, a2 = inst seq
	popIfetchDone                    // a1 = encoded AccessResult, a2 = fetch epoch
	popDrainFin                      // a1 = line, a2 = (vslot+1)<<1 | broadcast
	popCommitWT                      // a1 = line paddr, a2 = cache state
	popWalkStep                      // a1 = walk slot
	popMissRetry                     // a1 = miss slot
	popMissNACK                      // a1 = miss slot
	popMissFill                      // a1 = miss slot
	popIfetchRetry                   // a1 = miss slot
	popIfetchFill                    // a1 = miss slot
	popCommitReload                  // a1 = line, a2 = pc
	popCommitReloadFill              // a1 = line
	popCommitIfetchWT                // a1 = line
)

func encodeResult(res AccessResult) uint64 {
	v := uint64(res.Level)
	if res.NACK {
		v |= 1 << 8
	}
	return v
}

func decodeResult(v uint64) AccessResult {
	return AccessResult{Level: FillLevel(v & 0xff), NACK: v&(1<<8) != 0}
}

// HandleEvent dispatches the port's scheduled completions.
func (p *Port) HandleEvent(op int32, a1, a2 uint64) {
	switch op {
	case popDeliverAccess:
		p.cbs.take(int32(a1))(decodeResult(a2))
	case popDeliverVoid:
		p.vcbs.take(int32(a1))()
	case popLoadDone:
		p.client.LoadDone(int32(uint32(a1)), a2, decodeResult(a1>>32))
	case popIfetchDone:
		p.client.IfetchDone(a2, decodeResult(a1))
	case popDrainFin:
		line := a1
		p.h.invalidateSharers(line, p.id)
		if a2&1 != 0 {
			p.h.broadcastFilterInvalidate(line, p.id)
		}
		p.l1InstallData(line, cache.Modified)
		p.h.dirtyL2(line)
		if slot := a2 >> 1; slot != 0 {
			p.vcbs.take(int32(slot - 1))()
		}
	case popCommitWT:
		p.commitWTFin(uint64(a1), cache.State(a2))
	case popWalkStep:
		p.walkStep(int32(a1))
	case popMissRetry:
		ms := p.misses.take(int32(a1))
		p.dataRead(ms.pc, ms.vaddr, ms.paddr, ms.spec, ms.train, ms.cm)
	case popMissNACK:
		ms := p.misses.take(int32(a1))
		ms.mshrs.Complete(uint64(mem.LineAddr(ms.paddr)))
		p.completeNow(ms.cm, AccessResult{NACK: true})
	case popMissFill:
		p.missFill(p.misses.take(int32(a1)))
	case popIfetchRetry:
		ms := p.misses.take(int32(a1))
		p.ifetch(ms.vaddr, ms.paddr, ms.cm)
	case popIfetchFill:
		p.ifetchFill(p.misses.take(int32(a1)))
	case popCommitReload:
		out := p.h.l2LoadAccess(p.id, a1, false, true, a2, false)
		p.h.sched.AfterEvent(out.extraLat, p, popCommitReloadFill, a1, 0)
	case popCommitReloadFill:
		p.l1InstallData(a1, p.h.fillState(a1, p.id))
	case popCommitIfetchWT:
		p.l1InstallInst(a1)
	}
}

// comp is a pending access completion: a typed load delivery (idx ≥ 0,
// validated by seq), a typed fetch delivery (idx = fetchIdx, the fetch
// epoch in seq), a page-table-walk continuation (walk = slot+1), or a
// stored callback.
type comp struct {
	idx  int32
	walk int32
	seq  uint64
	cb   func(AccessResult)
}

// fetchIdx is the idx of a comp delivered to the client's IfetchDone.
const fetchIdx int32 = -2

func compOf(cb func(AccessResult)) comp { return comp{idx: -1, cb: cb} }

// compOfWalk routes a completion to the parked page-table walk in the
// given slot. idx must stay negative: complete/completeNow test idx
// before walk, and a zero idx would misdeliver to the client.
func compOfWalk(slot int32) comp { return comp{idx: -1, walk: slot + 1} }

// complete schedules delivery of an access result after lat cycles
// without allocating.
func (p *Port) complete(lat event.Cycle, cm comp, res AccessResult) {
	switch {
	case cm.idx >= 0:
		p.h.sched.AfterEvent(lat, p, popLoadDone,
			uint64(uint32(cm.idx))|encodeResult(res)<<32, cm.seq)
	case cm.idx == fetchIdx:
		p.h.sched.AfterEvent(lat, p, popIfetchDone, encodeResult(res), cm.seq)
	case cm.walk != 0:
		p.h.sched.AfterEvent(lat, p, popWalkStep, uint64(cm.walk-1), 0)
	default:
		p.h.sched.AfterEvent(lat, p, popDeliverAccess, uint64(p.cbs.put(cm.cb)), encodeResult(res))
	}
}

// completeNow delivers synchronously (MSHR coalescing wake-ups fire inside
// the primary miss's completion event).
func (p *Port) completeNow(cm comp, res AccessResult) {
	switch {
	case cm.idx >= 0:
		p.client.LoadDone(cm.idx, cm.seq, res)
	case cm.idx == fetchIdx:
		p.client.IfetchDone(cm.seq, res)
	case cm.walk != 0:
		p.walkStep(cm.walk - 1)
	default:
		cm.cb(res)
	}
}

// tcomp is a pending translation completion.
type tcomp struct {
	typed bool
	idx   int32
	seq   uint64
	fn    func(paddr mem.Addr, walked, fault bool)
}

func (p *Port) translateDone(cm tcomp, pa mem.Addr, walked, fault bool) {
	if cm.typed {
		p.client.TranslateDone(cm.idx, cm.seq, pa, walked, fault)
		return
	}
	cm.fn(pa, walked, fault)
}

// --- Translation ---

// Translate resolves vaddr through the TLBs, walking the page table on a
// miss (with real memory traffic through the data path). done receives
// the physical address, whether the translation required a walk, and
// whether the page was unmapped (fault).
func (p *Port) Translate(vaddr mem.VAddr, instr, spec bool, done func(paddr mem.Addr, walked, fault bool)) {
	p.translate(vaddr, instr, spec, tcomp{fn: done})
}

// TranslateC is the allocation-free Translate: the completion goes to the
// client's TranslateDone with the given (idx, seq) identification. TLB
// hits complete synchronously.
func (p *Port) TranslateC(vaddr mem.VAddr, instr, spec bool, idx int32, seq uint64) {
	p.translate(vaddr, instr, spec, tcomp{typed: true, idx: idx, seq: seq})
}

func (p *Port) translate(vaddr mem.VAddr, instr, spec bool, cm tcomp) {
	vpn := mem.PageNum(vaddr)
	if pfn, ok := p.lookupMain(vpn, instr); ok {
		p.translateDone(cm, mem.Addr(pfn<<mem.PageShift|uint64(vaddr)%mem.PageBytes), false, false)
		return
	}
	if p.fdtlb != nil {
		if pfn, ok := p.fdtlb.Lookup(p.asid, vpn); ok {
			p.translateDone(cm, mem.Addr(pfn<<mem.PageShift|uint64(vaddr)%mem.PageBytes), false, false)
			return
		}
	}
	// Hardware page-table walk: WalkDepth dependent memory reads through
	// the data-cache path.
	pfn, mapped := p.pt.Translate(vpn)
	if !mapped {
		p.translateDone(cm, 0, true, true)
		return
	}
	p.ctr[PCPTWalks]++
	slot := p.walks.put(ptwalk{
		vaddr: vaddr, vpn: vpn, pfn: pfn,
		addrs: p.pt.WalkAddrs(vpn),
		spec:  spec, instr: instr, cm: cm,
	})
	p.walkStep(slot)
}

// mainTLB is the main I- or D-TLB.
func (p *Port) mainTLB(instr bool) *tlb.TLB {
	if instr {
		return p.itlb
	}
	return p.dtlb
}

// lookupMain looks vpn up in the main I- or D-TLB, counting the lookup
// and a hit.
func (p *Port) lookupMain(vpn uint64, instr bool) (pfn uint64, hit bool) {
	lookups, hits := PCDTLBLookups, PCDTLBHits
	if instr {
		lookups, hits = PCITLBLookups, PCITLBHits
	}
	p.ctr[lookups]++
	if pfn, hit = p.mainTLB(instr).Lookup(p.asid, vpn); hit {
		p.ctr[hits]++
	}
	return pfn, hit
}

// walkStep issues the walk's next per-level read, or — after the last
// level — installs the translation (filter TLB for speculative walks,
// §4.7) and delivers the parked completion. Each read completes back here
// through the comp walk route, replacing the former per-walk closure
// chain: the event order, latency and TLB effects are identical.
func (p *Port) walkStep(slot int32) {
	w := p.walks.at(slot)
	if int(w.next) >= len(w.addrs) {
		fin := p.walks.take(slot)
		if p.fdtlb != nil && fin.spec {
			// Speculative translations go to the filter TLB (§4.7).
			p.fdtlb.Insert(p.asid, fin.vpn, fin.pfn)
		} else {
			p.mainTLB(fin.instr).Insert(p.asid, fin.vpn, fin.pfn)
		}
		p.translateDone(fin.cm, mem.Addr(fin.pfn<<mem.PageShift|uint64(fin.vaddr)%mem.PageBytes), true, false)
		return
	}
	a := w.addrs[w.next]
	w.next++
	p.dataRead(0, mem.VAddr(a), a, w.spec, false, compOfWalk(slot))
}

// CommitTranslation *moves* a speculative translation from the filter TLB
// to the main TLB at instruction commit (§4.7) and replays the walk line
// fills non-speculatively so the walker's lines reach the L1
// (retranslation). The move makes this a once-per-page action: later
// commits touching the same page find nothing to promote.
func (p *Port) CommitTranslation(vaddr mem.VAddr, instr bool) {
	if p.fdtlb == nil {
		return
	}
	vpn := mem.PageNum(vaddr)
	pfn, ok := p.fdtlb.Lookup(p.asid, vpn)
	if !ok {
		return
	}
	p.fdtlb.Remove(p.asid, vpn)
	p.mainTLB(instr).Insert(p.asid, vpn, pfn)
	for _, wa := range p.pt.WalkAddrs(vpn) {
		p.commitLineWriteThrough(wa, cache.Shared)
	}
}

// --- Loads ---

// Load performs a data load by the instruction at pc. Under FilterProtect
// every load is speculative until commit; the result may be a NACK, in
// which case the core reissues with spec=false once the load is the
// oldest instruction.
func (p *Port) Load(pc uint64, vaddr mem.VAddr, paddr mem.Addr, spec bool, done func(AccessResult)) {
	p.load(pc, vaddr, paddr, spec, compOf(done))
}

// LoadC is the allocation-free Load: completion goes to the client's
// LoadDone identified by (idx, seq).
func (p *Port) LoadC(pc uint64, vaddr mem.VAddr, paddr mem.Addr, spec bool, idx int32, seq uint64) {
	p.load(pc, vaddr, paddr, spec, comp{idx: idx, seq: seq})
}

func (p *Port) load(pc uint64, vaddr mem.VAddr, paddr mem.Addr, spec bool, cm comp) {
	p.ctr[PCLoads]++
	if !spec {
		p.ctr[PCNACKRetries]++
	}
	p.dataRead(pc, vaddr, paddr, spec, true, cm)
}

// dataRead is the shared load/PTW read path.
func (p *Port) dataRead(pc uint64, vaddr mem.VAddr, paddr mem.Addr, spec, train bool, cm comp) {
	m := p.h.cfg.Mode
	lat := p.h.cfg.Lat
	line := uint64(mem.LineAddr(paddr))

	// L0 lookup.
	l0Penalty := event.Cycle(0)
	if p.l0d != nil {
		// A line under vaddr's virtual tag is a hit even when its
		// physical tag turns out to be another line's.
		if l := p.l0d.Lookup(mem.LineAddr(vaddr)); l == nil {
			p.ctr[PCL0DMisses]++
		} else if p.ctr[PCL0DHits]++; l.Tag == line {
			p.complete(lat.L0Hit, cm, AccessResult{Level: FromL0})
			return
		}
		if !m.ParallelL1 {
			l0Penalty = lat.L0Hit
		}
	}

	// L1 lookup. Under FilterProtect, speculative lookups must not refresh
	// L1 replacement state (presence timing is already non-speculative,
	// but recency perturbation would be a speculative side channel).
	var l1l *cache.Line
	if m.FilterProtect && spec {
		l1l = p.l1d.Peek(line)
	} else {
		l1l = p.l1d.Lookup(line)
	}
	if l1l != nil {
		p.ctr[PCL1DHits]++
		total := l0Penalty + lat.L1DHit
		if p.l0d != nil {
			// Data already non-speculative: the L0 copy starts committed.
			p.fillL0(vaddr, paddr, cache.Shared, true, uint8(FromL1))
		}
		p.complete(total, cm, AccessResult{Level: FromL1})
		return
	}
	p.ctr[PCL1DMisses]++

	// Front-level MSHRs: the L0's when present, else the L1D's.
	mshrs := p.l1dMSHRs
	if p.l0d != nil {
		mshrs = p.l0d.MSHRs
	}
	if existing := mshrs.Lookup(line); existing != nil {
		mshrs.Allocate(line, p.mwait.put(cm))
		return
	}
	if mshrs.Full() {
		p.parkMiss(lat.MSHRRetry, popMissRetry,
			dmiss{pc: pc, vaddr: vaddr, paddr: paddr, spec: spec, train: train, cm: cm})
		return
	}
	mshrs.Allocate(line, cache.NoWaiter)

	fillL2 := !(m.FilterProtect && spec)
	out := p.h.l2LoadAccess(p.id, line, spec, fillL2, pc, train)
	total := l0Penalty + lat.L1DHit + out.extraLat

	op := popMissFill
	if out.nack {
		op = popMissNACK
	}
	p.parkMiss(total, op, dmiss{vaddr: vaddr, paddr: paddr, spec: spec, level: out.level, mshrs: mshrs, cm: cm})
}

// parkMiss parks ms in a reused slot and schedules op to pick it up after
// lat cycles.
func (p *Port) parkMiss(lat event.Cycle, op int32, ms dmiss) {
	p.h.sched.AfterEvent(lat, p, op, uint64(p.misses.put(ms)), 0)
}

// missFill completes an L1D miss whose data has arrived.
func (p *Port) missFill(ms dmiss) {
	m := p.h.cfg.Mode
	line := uint64(mem.LineAddr(ms.paddr))
	if m.FilterProtect && ms.spec {
		// Fill the filter cache only; exclusivity decided now, at
		// completion, against what the L1Ds and the other filter caches
		// hold. Speculative fills never downgrade anyone (a foreign owner
		// appearing mid-flight simply forces Shared).
		st := cache.Shared
		if owner, sharers := p.h.holders(line); owner < 0 && sharers&^(1<<uint(p.id)) == 0 {
			if m.CoherenceProtect {
				st = cache.SharedExclusivePending
			} else {
				// Vulnerable fcache-only design: take E directly.
				st = cache.Exclusive
			}
		}
		p.fillL0(ms.vaddr, ms.paddr, st, false, uint8(ms.level))
	} else {
		// Unprotected fill, or a non-speculative (NACK-retried)
		// access under MuonTrap: install in L1/L2 directly.
		p.l1InstallData(line, p.h.fillState(line, p.id))
		if p.l0d != nil {
			p.fillL0(ms.vaddr, ms.paddr, cache.Shared, true, uint8(ms.level))
		}
	}
	ms.mshrs.Complete(line)
	p.completeNow(ms.cm, AccessResult{Level: ms.level})
}

// ifetchFill completes an L1I miss whose line has arrived: under filter
// protection it fills the instruction filter cache only, speculatively
// (§4.7); otherwise it installs in the L1I and commits any filter copy.
func (p *Port) ifetchFill(ms dmiss) {
	line := uint64(mem.LineAddr(ms.paddr))
	if p.h.cfg.Mode.FilterProtect && p.l0i != nil {
		p.fillL0I(ms.vaddr, ms.paddr, false, uint8(ms.level))
	} else {
		p.l1InstallInst(line)
		if p.l0i != nil {
			p.fillL0I(ms.vaddr, ms.paddr, true, uint8(ms.level))
		}
	}
	ms.mshrs.Complete(line)
	p.completeNow(ms.cm, AccessResult{Level: ms.level})
}

// fillL0 installs a line in the data filter cache, counting an
// uncommitted line it displaces.
func (p *Port) fillL0(vaddr mem.VAddr, paddr mem.Addr, st cache.State, committed bool, level uint8) {
	if ev, had := p.l0d.Fill(mem.LineAddr(vaddr), mem.LineAddr(paddr), st, committed, level); had && !ev.Committed {
		p.ctr[PCL0DEvictedUncommitted]++
	}
}

// ownedFilterLine is the data filter cache's copy of line when it holds
// it E or M, else nil.
func (p *Port) ownedFilterLine(line uint64) *cache.Line {
	if p.l0d == nil {
		return nil
	}
	if l := p.l0d.Snoop(mem.Addr(line)); l != nil && l.State.Owned() {
		return l
	}
	return nil
}

// l1InstallData installs a line in this core's L1D, handling the
// eviction writeback. Installing a weaker state over a line the core
// already owns keeps the stronger state (a commit-time write-through must
// not strip M/E gained by an earlier store).
func (p *Port) l1InstallData(line uint64, st cache.State) {
	if l := p.l1d.Peek(line); l != nil {
		if l.State == cache.Modified || (l.State == cache.Exclusive && st != cache.Modified) {
			st = l.State
		}
	}
	// Inclusion: the L2 must hold the line.
	p.h.l2Install(line, false)
	l, ev, had := p.l1d.Fill(line, st)
	l.Committed = true
	if had && ev.State == cache.Modified {
		p.h.dirtyL2(ev.Tag)
	}
}

// --- Stores ---

// StorePrefetch lets a speculative store bring its line into the filter
// cache in Shared state (never exclusive, §4.5), hiding fill latency from
// the post-commit write. Only meaningful under FilterProtect with a data
// L0; otherwise a no-op.
func (p *Port) StorePrefetch(pc uint64, vaddr mem.VAddr, paddr mem.Addr, done func()) {
	m := p.h.cfg.Mode
	if p.l0d == nil || !m.FilterProtect {
		if done != nil {
			done()
		}
		return
	}
	cb := noopAccessResult
	if done != nil {
		cb = func(AccessResult) { done() }
	}
	p.dataRead(pc, vaddr, paddr, true, false, compOf(cb))
}

// noopAccessResult discards a completion (fire-and-forget accesses).
var noopAccessResult = func(AccessResult) {}

// StoreDrain performs a committed store's cache write: obtain the line in
// Modified state in the L1 and write the data through the hierarchy's
// functional memory. The §4.5 broadcast filter invalidation fires when the
// line was not already held E/M by this core's own L1 — the event Figure 7
// counts.
func (p *Port) StoreDrain(pc uint64, vaddr mem.VAddr, paddr mem.Addr, done func()) {
	p.ctr[PCStores]++
	p.ctr[PCStoreDrains]++
	m := p.h.cfg.Mode
	lat := p.h.cfg.Lat
	line := uint64(mem.LineAddr(paddr))

	if l := p.l1d.Peek(line); l != nil && l.State.Owned() {
		l.State = cache.Modified
		p.deliverVoid(lat.L1DHit, done)
		return
	}

	// A committed line still sitting in the filter cache whose SE→E
	// upgrade (or plain write-through) is in flight: the exclusivity is
	// already being acquired by the commit path, so the store merges
	// silently instead of issuing a second upgrade (and is not counted in
	// the Figure 7 broadcast rate). This mirrors hardware, where both
	// requests serialise at the same L1 miss-handling entry.
	if m.FilterProtect && p.l0d != nil {
		if l0 := p.l0d.Snoop(mem.Addr(line)); l0 != nil && l0.Committed {
			owner, sharers := p.h.holders(line)
			if (owner < 0 || owner == p.id) && sharers&^(1<<uint(p.id)) == 0 {
				p.scheduleDrainFin(lat.L1DHit+lat.L2Port, line, false, done)
				return
			}
		}
	}

	// Upgrade / RFO. Latency decided from current state; all coherence
	// state changes happen atomically at the completion event.
	p.ctr[PCStoreUpgrades]++
	extra := p.h.l2PortDelay()
	broadcast := m.FilterProtect && m.CoherenceProtect
	if broadcast {
		extra += lat.Broadcast
	}
	// Data fetch: free if any on-chip copy exists (own L0 counts — the
	// speculative store prefetch pays off here).
	onChip := p.h.l2.Peek(line) != nil
	if !onChip && p.l0d != nil && p.l0d.Snoop(mem.Addr(line)) != nil {
		onChip = true
	}
	if onChip {
		extra += lat.L2Hit
	} else {
		p.h.ctr[dramFills]++
		extra += lat.L2Hit + lat.DRAMCtrl + p.h.dramWait(line)
	}
	p.scheduleDrainFin(lat.L1DHit+extra, line, broadcast, done)
}

// deliverVoid schedules done() after lat cycles through the reusable-slot
// registry (no per-event closure).
func (p *Port) deliverVoid(lat event.Cycle, done func()) {
	if done == nil {
		return
	}
	p.h.sched.AfterEvent(lat, p, popDeliverVoid, uint64(p.vcbs.put(done)), 0)
}

// scheduleDrainFin schedules the store-drain completion work (sharer
// invalidation, optional filter broadcast, Modified install) as a typed
// event.
func (p *Port) scheduleDrainFin(lat event.Cycle, line uint64, broadcast bool, done func()) {
	var a2 uint64
	if done != nil {
		a2 = uint64(p.vcbs.put(done)+1) << 1
	}
	if broadcast {
		a2 |= 1
	}
	p.h.sched.AfterEvent(lat, p, popDrainFin, line, a2)
}

// --- Commit-time actions (FilterProtect) ---

// CommitLoad performs the §4.2 commit-time work for a load: mark the
// filter line committed, write it through to the L1 (and inclusive L2),
// launch the asynchronous SE→E upgrade when applicable, notify the
// prefetcher (§4.6), and passively reload lines evicted before commit.
// All of it is asynchronous: commit is never stalled.
func (p *Port) CommitLoad(pc uint64, vaddr mem.VAddr, paddr mem.Addr) {
	m := p.h.cfg.Mode
	if !m.FilterProtect {
		return
	}
	line := uint64(mem.LineAddr(paddr))
	if p.l0d != nil {
		prev, wasUncommitted, present := p.l0d.MarkCommitted(mem.LineAddr(paddr))
		if present {
			if !wasUncommitted {
				return // already visible; nothing new for the hierarchy
			}
			p.ctr[PCCommitWrites]++
			st := cache.Shared
			if prev == cache.SharedExclusivePending {
				st = cache.Exclusive
				p.ctr[PCSEUpgrades]++
			}
			fl := FromL2
			if l := p.l0d.Snoop(mem.LineAddr(paddr)); l != nil {
				fl = FillLevel(l.FillLevel)
			}
			p.commitLineWriteThrough(mem.LineAddr(paddr), st)
			if m.CommitPrefetch && fl >= FromL2 {
				p.h.pf.Observe(pc, mem.LineAddr(paddr))
			}
			return
		}
		// Evicted before commit: a valid in-order execution would have
		// cached it, so passively reload into the L1 (§4.2): the L2
		// access goes out after the port latency, and popCommitReloadFill
		// installs the line when it returns.
		p.ctr[PCCommitReloads]++
		p.h.sched.AfterEvent(p.h.cfg.Lat.L2Port, p, popCommitReload, line, pc)
		if m.CommitPrefetch {
			p.h.pf.Observe(pc, mem.LineAddr(paddr))
		}
	}
}

// commitLineWriteThrough installs a committed filter line into the L1/L2
// asynchronously, performing the SE→E upgrade broadcast when st is
// Exclusive (§4.5: the upgrade invalidates copies in other filter caches).
func (p *Port) commitLineWriteThrough(paddr mem.Addr, st cache.State) {
	delay := p.h.l2PortDelay() + p.h.cfg.Lat.L2Port
	p.h.sched.AfterEvent(delay, p, popCommitWT, uint64(mem.LineAddr(paddr)), uint64(st))
}

// commitWTFin is the completion-time half of commitLineWriteThrough.
func (p *Port) commitWTFin(line uint64, st cache.State) {
	if st == cache.Exclusive {
		if !p.h.exclusiveAtFill(line, p.id) {
			// Someone non-speculative took the line meanwhile; fall
			// back to Shared.
			st = cache.Shared
		} else if p.h.cfg.Mode.CoherenceProtect {
			p.h.broadcastFilterInvalidate(line, p.id)
		}
	} else {
		p.h.sharedAtFill(line, p.id)
	}
	p.l1InstallData(line, st)
}

// --- Instruction fetch ---

// Ifetch performs an instruction-cache access for the line containing
// paddr. All fetches are speculative until the instructions commit.
func (p *Port) Ifetch(vaddr mem.VAddr, paddr mem.Addr, done func(AccessResult)) {
	p.ifetch(vaddr, paddr, compOf(done))
}

// IfetchC is the allocation-free Ifetch: completion goes to the client's
// IfetchDone carrying the given fetch epoch.
func (p *Port) IfetchC(vaddr mem.VAddr, paddr mem.Addr, epoch uint64) {
	p.ifetch(vaddr, paddr, comp{idx: fetchIdx, seq: epoch})
}

func (p *Port) ifetch(vaddr mem.VAddr, paddr mem.Addr, cm comp) {
	p.ctr[PCIfetches]++
	m := p.h.cfg.Mode
	lat := p.h.cfg.Lat
	line := uint64(mem.LineAddr(paddr))

	l0Penalty := event.Cycle(0)
	if p.l0i != nil {
		if l := p.l0i.Lookup(mem.LineAddr(vaddr)); l == nil {
			p.ctr[PCL0IMisses]++
		} else if p.ctr[PCL0IHits]++; l.Tag == line {
			p.complete(lat.L0Hit, cm, AccessResult{Level: FromL0})
			return
		}
		if !m.ParallelL1 {
			l0Penalty = lat.L0Hit
		}
	}

	var l1l *cache.Line
	if m.FilterProtect && p.l0i != nil {
		l1l = p.l1i.Peek(line)
	} else {
		l1l = p.l1i.Lookup(line)
	}
	if l1l != nil {
		p.ctr[PCL1IHits]++
		if p.l0i != nil {
			p.fillL0I(vaddr, paddr, true, uint8(FromL1))
		}
		p.complete(l0Penalty+lat.L1IHit, cm, AccessResult{Level: FromL1})
		return
	}
	p.ctr[PCL1IMisses]++

	mshrs := p.l1iMSHRs
	if p.l0i != nil {
		mshrs = p.l0i.MSHRs
	}
	if existing := mshrs.Lookup(line); existing != nil {
		mshrs.Allocate(line, p.mwait.put(cm))
		return
	}
	if mshrs.Full() {
		p.parkMiss(lat.MSHRRetry, popIfetchRetry, dmiss{vaddr: vaddr, paddr: paddr, cm: cm})
		return
	}
	mshrs.Allocate(line, cache.NoWaiter)

	// Instructions are read-only: no coherence interaction beyond the L2.
	specBypass := m.FilterProtect && p.l0i != nil
	extra := p.h.l2PortDelay()
	var level FillLevel
	if l2l := p.h.l2.Lookup(line); l2l != nil {
		p.h.ctr[l2Hits]++
		extra += lat.L2Hit
		level = FromL2
	} else {
		p.h.ctr[l2Misses]++
		p.h.ctr[dramFills]++
		extra += lat.L2Hit + lat.DRAMCtrl + p.h.dramWait(line)
		level = FromMem
		if !specBypass {
			p.h.l2Install(line, false)
		}
	}
	total := l0Penalty + lat.L1IHit + extra
	p.parkMiss(total, popIfetchFill, dmiss{vaddr: vaddr, paddr: paddr, level: level, mshrs: mshrs, cm: cm})
}

func (p *Port) fillL0I(vaddr mem.VAddr, paddr mem.Addr, committed bool, level uint8) {
	p.l0i.Fill(mem.LineAddr(vaddr), mem.LineAddr(paddr), cache.Shared, committed, level)
}

func (p *Port) l1InstallInst(line uint64) {
	p.h.l2Install(line, false)
	l, _, _ := p.l1i.Fill(line, cache.Shared)
	l.Committed = true
}

// CommitIfetch marks the instruction line containing paddr committed when
// the first instruction from it commits, writing it through to the L1I
// (§4.7: no coherence transactions needed for read-only lines).
func (p *Port) CommitIfetch(paddr mem.Addr) {
	if p.l0i == nil || !p.h.cfg.Mode.FilterProtect {
		return
	}
	line := uint64(mem.LineAddr(paddr))
	_, wasUncommitted, present := p.l0i.MarkCommitted(mem.Addr(line))
	if present && wasUncommitted {
		delay := p.h.l2PortDelay() + p.h.cfg.Lat.L2Port
		p.h.sched.AfterEvent(delay, p, popCommitIfetchWT, line, 0)
	}
}

// --- Flushes ---

// FlushDomain clears all speculative filter state: both filter caches and
// the filter TLB. Called on context switches, system calls and sandbox
// entry (§4.3, §4.9). The flash invalidate itself is a single cycle; the
// protection-domain switch cost is charged by the caller.
func (p *Port) FlushDomain() { p.flushFilters(PCDomainFlushes) }

// FlushOnMisspec clears filter state on a pipeline squash when the
// per-process clear-on-misspeculate mode is enabled (§4.9).
func (p *Port) FlushOnMisspec() {
	if p.h.cfg.Mode.ClearOnMisspec {
		p.flushFilters(PCMisspecFlushes)
	}
}

// flushFilters flash-invalidates both filter caches and the filter TLB,
// counting the flush under why.
func (p *Port) flushFilters(why PortCounter) {
	p.ctr[why]++
	if p.l0d != nil {
		p.l0d.FlashInvalidate(nil)
	}
	if p.l0i != nil {
		p.l0i.FlashInvalidate(nil)
	}
	if p.fdtlb != nil {
		p.fdtlb.FlushAll()
	}
}

// --- InvisiSpec support ---

// LoadNoFill performs an InvisiSpec-style invisible load: the data's
// location determines latency, but no cache or filter state changes
// anywhere. (DRAM open-row state does change — InvisiSpec does not
// claim to hide DRAM timing.)
func (p *Port) LoadNoFill(paddr mem.Addr, done func(AccessResult)) {
	p.loadNoFill(paddr, compOf(done))
}

// LoadNoFillC is the allocation-free LoadNoFill, delivered to the client's
// LoadDone.
func (p *Port) LoadNoFillC(paddr mem.Addr, idx int32, seq uint64) {
	p.loadNoFill(paddr, comp{idx: idx, seq: seq})
}

func (p *Port) loadNoFill(paddr mem.Addr, cm comp) {
	p.ctr[PCLoads]++
	lat := p.h.cfg.Lat
	line := uint64(mem.LineAddr(paddr))
	if p.l1d.Peek(line) != nil {
		p.complete(lat.L1DHit, cm, AccessResult{Level: FromL1})
		return
	}
	extra := event.Cycle(0)
	if owner, _ := p.h.holders(line); owner >= 0 && owner != p.id {
		// Data forwarded from the owner without a state change.
		extra += lat.RemoteWB
	}
	if p.h.l2.Peek(line) != nil {
		p.complete(lat.L1DHit+lat.L2Hit+extra, cm, AccessResult{Level: FromL2})
		return
	}
	p.complete(lat.L1DHit+lat.L2Hit+lat.DRAMCtrl+p.h.dramWait(line)+extra, cm, AccessResult{Level: FromMem})
}

// LoadExpose performs the InvisiSpec exposure/validation access: a normal
// non-speculative load that installs the line in the caches.
func (p *Port) LoadExpose(pc uint64, vaddr mem.VAddr, paddr mem.Addr, done func(AccessResult)) {
	p.dataRead(pc, vaddr, paddr, false, true, compOf(done))
}
