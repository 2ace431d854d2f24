package cpu

import (
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
)

// --- Issue & execute ---

// branchResolveExtra is the execute-to-redirect depth charged on branch
// resolution beyond the ALU latency.
const branchResolveExtra = 4

// Core event ops (event.Handler). Args are (pool index, inst seq); a seq
// mismatch at fire time means the instruction was squashed or recycled and
// the event is dropped — the allocation-free replacement for the closures
// that used to capture (core, dynInst) per event.
const (
	opExecDone int32 = iota // ALU/branch latency elapsed: execute & resolve
	opAgenDone              // address-generation latency elapsed: translate
	opFwdDone               // store-to-load forward bypass latency elapsed
)

// HandleEvent dispatches the core's typed pipeline events.
func (c *Core) HandleEvent(op int32, a1, a2 uint64) {
	c.wake()
	d := c.inst(a1, a2)
	if d == nil {
		return
	}
	switch op {
	case opExecDone:
		r := isa.Exec(d.si.Inst, d.pc, d.v1, d.v2)
		d.result = r.Value
		c.complete(d)
		if d.isBranch() {
			c.resolveBranch(d, r)
		}
	case opAgenDone:
		r := isa.Exec(d.si.Inst, d.pc, d.v1, d.v2)
		d.effAddr = r.EffAddr
		d.phase = memAgenDone
		c.port.TranslateC(mem.VAddr(d.effAddr), false, true, d.idx, d.seq)
	case opFwdDone:
		d.result = d.fwdVal
		d.forwarded = true
		c.complete(d)
		d.phase = memDone
	}
}

// loadSafe reports whether a load with sequence number seq is past the
// policy's unsafe action: all older branches resolved, or every older
// instruction executed (the load is unsquashable). Both compare seq with a
// frontier the core keeps (see firstUndoneSeq), not with a walk of the ROB.
func (c *Core) loadSafe(seq uint64) bool {
	switch c.pol.safe {
	case safeBranches:
		return c.firstUnresolvedBranchSeq() > seq
	case safeUnsquashable:
		return c.firstUndoneSeq() >= seq
	}
	return true
}

// issue selects from the ready list — the issue-queue entries whose
// operands have all arrived, oldest first — up to IssueWidth instructions
// that find a free functional unit. Entries still waiting on a producer are
// not here (wake moves them in), so the pass costs what can issue, not what
// is queued. Dispatch order is seq order and readyCycle never decreases
// along it, so the pass stops at the first entry still in the front end;
// it also stops once the width is spent, since nothing past that point has
// a side effect (no STT stall is counted for an entry that was not
// considered).
func (c *Core) issue() {
	if len(c.ready) == 0 {
		return
	}
	now := uint64(c.sched.Now())
	issued := 0
	intFree := c.cfg.IntALUs
	fpFree := c.cfg.FPALUs
	mdFree := 0
	for _, f := range c.divFree {
		if event.Cycle(now) >= f {
			mdFree++
		}
	}
	memFree := 2 // load/store pipes per cycle

	// In-place compaction: issued entries are dropped, everything else
	// keeps its age order. Each visited entry is provisionally kept (kept
	// trails i, so the write never overtakes the read) and the slot is
	// taken back when the entry issues.
	kept, i := 0, 0
	for ; i < len(c.ready) && issued < c.cfg.IssueWidth; i++ {
		d := c.ready[i]
		if d.readyCycle > now {
			break
		}
		c.ready[kept] = d
		kept++
		cls := d.si.Class

		// Tainted transmitters may not issue until their taint root is
		// safe.
		if c.pol.unsafe == taint && (cls == isa.ClassLoad || cls == isa.ClassStore || cls == isa.ClassJumpInd) {
			if root, _ := c.operandTaint(d); root != nil {
				c.ctr[STTStalls]++ // counted per cycle: the core stays awake
				c.moved = true
				continue
			}
		}

		ok := false
		switch cls {
		case isa.ClassIntALU, isa.ClassBranch, isa.ClassJumpInd:
			if intFree > 0 {
				intFree--
				c.execALU(d, c.cfg.IntALULat)
				ok = true
			}
		case isa.ClassIntMulDiv:
			if mdFree > 0 {
				mdFree--
				lat := c.cfg.MulLat
				if d.si.Inst.Op == isa.OpDiv || d.si.Inst.Op == isa.OpRem {
					lat = c.cfg.DivLat
					// Divider is unpipelined: occupy a slot.
					for s := range c.divFree {
						if event.Cycle(now) >= c.divFree[s] {
							c.divFree[s] = event.Cycle(now) + lat
							break
						}
					}
				}
				c.execALU(d, lat)
				ok = true
			}
		case isa.ClassFPALU:
			if fpFree > 0 {
				fpFree--
				c.execALU(d, c.cfg.FPALULat)
				ok = true
			}
		case isa.ClassLoad, isa.ClassStore:
			if memFree > 0 {
				memFree--
				c.execMemAgen(d)
				ok = true
			}
		}
		if ok {
			c.moved = true
			kept--
			d.inIQ = false
			c.iqCount--
			issued++
		}
	}
	if kept != i {
		kept += copy(c.ready[kept:], c.ready[i:])
		c.ready = c.ready[:kept]
	}
}

// execALU schedules a register-to-register instruction (including branch
// resolution) to complete after lat cycles. Branches pay extra resolution
// latency for the deep-pipeline distance between execute and the front
// end; this is also what keeps "unresolved branch" windows open long
// enough for the InvisiSpec/STT safety conditions to matter, as on real
// hardware.
func (c *Core) execALU(d *dynInst, lat event.Cycle) {
	if d.isBranch() {
		lat += branchResolveExtra
	}
	c.sched.AfterEvent(lat, c, opExecDone, uint64(uint32(d.idx)), d.seq)
}

// resolveBranch trains the predictor and squashes on a misprediction.
func (c *Core) resolveBranch(d *dynInst, r isa.ExecResult) {
	isCond := d.si.Class == isa.ClassBranch
	c.pred.Update(d.pc, d.pred, r.Taken, r.Target, isCond)
	actualNext := r.Target
	if !r.Taken {
		actualNext = d.pc + isa.InstBytes
	}
	if c.fetchWaitResolve == d {
		// Fetch was parked on this unpredicted indirect jump: resume at
		// the resolved target with the redirect penalty, no squash needed
		// (nothing younger was fetched).
		c.fetchWaitResolve = nil
		c.fetchPC = actualNext
		c.fetchResumeAt = c.sched.Now() + c.cfg.RedirectPenalty
		c.fetchLineOK = false
		return
	}
	if actualNext != d.predNext {
		c.ctr[Mispredicts]++
		c.squashAfter(d, actualNext, r.Taken)
	}
}

// squashAfter kills every instruction younger than d, restores the rename
// map and predictor state, and redirects fetch.
func (c *Core) squashAfter(d *dynInst, newPC uint64, actualTaken bool) {
	pos := -1
	for i := 0; i < c.rob.len(); i++ {
		if c.rob.at(i) == d {
			pos = i
			break
		}
	}
	if pos < 0 {
		return // already squashed by an older branch
	}
	for i := pos + 1; i < c.rob.len(); i++ {
		y := c.rob.at(i)
		y.squashed = true
		c.ctr[Squashed]++
		if y.inIQ {
			c.iqCount-- // parked or ready, its queue slot is free again
		}
	}
	c.ready = filterSquashed(c.ready)
	c.lq = filterSquashed(c.lq)
	c.sq = filterSquashed(c.sq)
	c.retry = filterSquashed(c.retry)
	if d.checkpoint != nil {
		c.rename = d.checkpoint.ptr
		c.renameSeq = d.checkpoint.seq
	}
	// Drop rename entries that point at squashed producers, or at
	// committed-and-recycled ones (the checkpoint predates the branch;
	// anything it references is older, and a stale seq means it has since
	// committed — its value is architectural).
	for i, p := range c.rename {
		if p != nil && (p.seq != c.renameSeq[i] || p.squashed) {
			c.rename[i] = nil
			c.renameSeq[i] = 0
		}
	}
	if d.hasPred {
		c.pred.Squash(d.pred, actualTaken)
	}
	c.fetchPC = newPC
	c.fetchStall = false
	c.fetchWaitResolve = nil
	c.fetchLineOK = false
	c.fetchLinePend = false
	c.fetchEpoch++
	c.fetchResumeAt = c.sched.Now() + c.cfg.RedirectPenalty
	// Recycle the squashed tail. Pending events referencing these
	// instructions validate (idx, seq) at fire time and drop.
	for i := pos + 1; i < c.rob.len(); i++ {
		c.freeInst(c.rob.at(i))
	}
	c.rob.truncate(pos + 1)
	// Optional MuonTrap mode: clear filter state on every misspeculation.
	c.port.FlushOnMisspec()
}

func filterSquashed(s []*dynInst) []*dynInst {
	out := s[:0]
	for _, d := range s {
		if !d.squashed {
			out = append(out, d)
		}
	}
	return out
}

// --- Memory instructions ---

// execMemAgen starts a load/store: compute the effective address, then
// translate. Both steps complete through typed events (opAgenDone, then
// the port's TranslateDone), so the steady-state path allocates nothing.
func (c *Core) execMemAgen(d *dynInst) {
	c.sched.AfterEvent(c.cfg.IntALULat, c, opAgenDone, uint64(uint32(d.idx)), d.seq)
}

// tryLoadAccess attempts the memory half of a load: disambiguate against
// older stores, forward when possible, otherwise access the hierarchy. A
// load that must wait for an older instruction is parked on it and is not
// looked at again until that instruction lets it go (unpark). The result
// is true only for a footprint stall, which is counted cycle by cycle: the
// caller keeps the load on the retry list for the next cycle.
func (c *Core) tryLoadAccess(d *dynInst) (stalled bool) {
	if d.squashed || d.phase >= memAccessIssued {
		return false
	}
	fwd, blocker := c.searchOlderStores(d)
	if blocker != nil {
		d.phase = memWaitingOlderStores
		c.link(&blocker.parked, d)
		return false
	}
	if fwd != nil {
		d.phase = memAccessIssued
		d.fwdVal = c.storeData(fwd)
		c.sched.AfterEvent(1, c, opFwdDone, uint64(uint32(d.idx)), d.seq)
		return false
	}
	// One decision: a normal access (taint is the issue stage's business),
	// a footprint stall, or an invisible read.
	d.phase = memAccessIssued
	switch act := c.pol.unsafe; {
	case act == proceed || act == taint || c.loadSafe(d.seq) || act == footprint && c.sbData.has(d.paddr):
		c.port.LoadC(d.pc, mem.VAddr(d.effAddr), d.paddr, true, d.idx, d.seq)
	case act == footprint:
		// The line was never accessed non-speculatively by this domain, so
		// the access may not reach the memory system until the load is
		// safe (memMaintenance retries it).
		c.ctr[SafeBetStalls]++
		d.phase = memWaitingOlderStores
		return true
	default: // expose, validate: read invisibly now, expose later
		d.needsExpose = true
		c.port.LoadNoFillC(d.paddr, d.idx, d.seq)
	}
	return false
}

// reissueLoad reruns a NACKed load non-speculatively once it is the oldest
// instruction (§4.5 forward-progress rule).
func (c *Core) reissueLoad(d *dynInst) {
	if d.phase != memNACKed {
		return
	}
	c.moved = true
	d.phase = memAccessIssued
	c.port.LoadC(d.pc, mem.VAddr(d.effAddr), d.paddr, false, d.idx, d.seq)
}

func (c *Core) finishLoad(d *dynInst) {
	d.result = c.phys.Read64(d.paddr)
	c.complete(d)
	d.phase = memDone
}

// searchOlderStores disambiguates a load against the older stores. It
// returns the youngest older store to the same address, to forward from,
// or the instruction the load has to wait for first (blocker): the
// youngest older AMO, or store whose address is still unknown
// (conservative disambiguation). With a blocker there is nothing to
// forward yet; a store releases the load when it completes, an AMO when it
// commits. A store that has an address also has its data — it entered the
// issue queue waiting for both operands — so a match can always be
// forwarded (CheckParkedLoads holds the core to that).
func (c *Core) searchOlderStores(d *dynInst) (match, blocker *dynInst) {
	for i := len(c.sq) - 1; i >= 0; i-- {
		s := c.sq[i]
		if s.seq >= d.seq || s.squashed {
			continue
		}
		if s.isAmo() {
			// AMOs order all younger loads behind them until they commit
			// (acquire semantics for lock workloads).
			return nil, s
		}
		if s.phase < memTranslated {
			if !s.faulted {
				return nil, s
			}
			continue
		}
		if match == nil && s.effAddr == d.effAddr {
			match = s
		}
	}
	if match != nil {
		return match, nil
	}
	// Committed-but-undrained stores in the store buffer, newest first.
	for i := c.storeBuf.len() - 1; i >= 0; i-- {
		s := c.storeBuf.at(i)
		if s.effAddr == d.effAddr {
			return s, nil
		}
	}
	return nil, nil
}

// memMaintenance runs the loads on the retry list through disambiguation
// again, oldest first: each was released by the instruction it waited for
// since the last cycle, or stalls outside the footprint and is counted
// every cycle. A load blocked again parks on its new blocker; only a
// footprint stall stays listed.
func (c *Core) memMaintenance() {
	if len(c.retry) == 0 {
		return
	}
	c.moved = true
	kept := 0
	for _, d := range c.retry {
		if c.tryLoadAccess(d) {
			c.retry[kept] = d
			kept++
		} else if d.phase == memWaitingOlderStores {
			c.retriesParked++
		}
	}
	c.retry = c.retry[:kept]
}

func (c *Core) removeFromLQ(d *dynInst) {
	for i, l := range c.lq {
		if l == d {
			c.lq = append(c.lq[:i], c.lq[i+1:]...)
			return
		}
	}
}

func (c *Core) removeFromSQ(d *dynInst) {
	for i, s := range c.sq {
		if s == d {
			c.sq = append(c.sq[:i], c.sq[i+1:]...)
			return
		}
	}
}

// --- AMO (atomic compare-and-swap), executed at the ROB head ---

// AMOs run at the ROB head, where no older branch can squash them, but a
// context switch (flushPipeline) can still kill an AMO mid-flight — so the
// completion closures, which capture the pooled dynInst pointer directly,
// pin the slot: the squashed flag stays readable until the last completion
// lands, and a flushed AMO's pending callbacks become no-ops.
func (c *Core) executeAmoAtHead(d *dynInst) {
	if d.phase != memIdle {
		return
	}
	// No issue-queue entry, so nothing latched the operands dispatch found
	// in flight; at the ROB head their producers have all committed, which
	// makes the values architectural.
	if d.use1 && !d.v1Ready {
		d.v1, d.v1Ready = c.regs[d.si.Src1], true
		c.moved = true
	}
	if d.use2 && !d.v2Ready {
		d.v2, d.v2Ready = c.regs[d.si.Src2], true
		c.moved = true
	}
	// AMOs are full fences: all older stores must be visible first.
	if c.storeBuf.len() > 0 || c.drainsInFlight > 0 {
		return
	}
	c.moved = true
	d.phase = memAgenDone
	r := isa.Exec(d.si.Inst, d.pc, d.v1, d.v2)
	d.effAddr = r.EffAddr
	d.pins++
	c.port.Translate(mem.VAddr(d.effAddr), false, false, func(pa mem.Addr, walked, fault bool) {
		c.wake()
		if d.squashed {
			c.unpin(d)
			return
		}
		if fault {
			d.faulted = true
			c.complete(d)
			c.unpin(d)
			return
		}
		d.paddr = pa
		// Atomic read-modify-write at a single event point, with store-
		// drain timing for the coherence work.
		old := c.phys.Read64(pa)
		if old == d.v2 {
			c.phys.Write64(pa, uint64(d.si.Inst.Imm))
		}
		d.result = old
		c.port.StoreDrain(d.pc, mem.VAddr(d.effAddr), pa, func() {
			c.wake()
			if !d.squashed {
				c.complete(d)
				d.phase = memDone
			}
			c.unpin(d)
		})
	})
}

// --- Defense maintenance (exposures of invisible loads) ---

// defenseMaintenance fires the exposures of the expose action: every
// invisible load that has its data and is now safe. A load gets there only
// by completing or by the safe-when frontier passing it, and both raise
// exposeScan, so a cycle after which neither happened has nothing to find.
// Loads still invisible at commit are exposed from commitReady.
func (c *Core) defenseMaintenance() {
	if c.pol.unsafe != expose {
		return
	}
	c.loadSafe(0) // lets the frontier catch up with the cycle's completions
	if !c.exposeScan {
		return
	}
	c.exposeScan = false
	c.moved = true
	for _, d := range c.lq {
		if d.squashed || !d.needsExpose || d.exposing || d.exposeDone {
			continue
		}
		if d.done && c.loadSafe(d.seq) {
			c.exposeLoad(d)
		}
	}
}

// exposeLoad replays an invisible load as a normal access, installing the
// line. The closure pins the dynInst: under the expose action an exposure
// can outlive the load's commit, and the pin keeps the pool slot alive until it
// lands.
func (c *Core) exposeLoad(d *dynInst) {
	if d.exposing || d.exposeDone {
		return
	}
	c.moved = true
	d.exposing = true
	c.ctr[Exposures]++
	d.pins++
	c.port.LoadExpose(d.pc, mem.VAddr(d.effAddr), d.paddr, func(memsys.AccessResult) {
		c.wake()
		d.exposing = false
		d.exposeDone = true
		c.unpin(d)
	})
}
