package cpu

import (
	"repro/internal/bpred"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
)

// syntheticHalt backs the halts the fetch unit fabricates when running off
// the text segment or faulting on an instruction fetch.
var syntheticHalt = isa.NewStaticInst(isa.Inst{Op: isa.OpHalt})

// fetchHandle is the sentinel pool index for typed memory-port completions
// that belong to the fetch engine rather than a dynamic instruction; such
// completions validate against the fetch epoch instead of an inst seq.
const fetchHandle = int32(-1)

// Core is one simulated out-of-order hardware thread.
type Core struct {
	id    int
	cfg   Config
	pol   policy // cfg.Defense, resolved once by NewCore
	sched *event.Scheduler
	port  *memsys.Port
	phys  *mem.Physical
	pred  *bpred.Predictor

	prog *isa.Program

	// Architectural state, plus the rename map. Rename entries are
	// validated by seq: an entry whose seq no longer matches points at a
	// committed-and-recycled producer, whose value lives in regs.
	regs      [isa.NumRegs]uint64
	rename    [isa.NumRegs]*dynInst
	renameSeq [isa.NumRegs]uint64

	// dynInst pool (stable pointers; see dyninst.go), and the borrowed
	// chunks behind it and behind the rename snapshots.
	insts      []*dynInst
	freeList   []int32
	snapFree   []*renameSnap
	instChunks [][]dynInst
	snapChunks [][]renameSnap

	// ROB, in program order; index 0 is the oldest.
	rob instRing
	lq  []*dynInst
	sq  []*dynInst

	// The two safety frontiers, as ROB positions: everything before
	// undonePos has executed, nothing before branchPos is an unresolved
	// branch. loadSafe compares a load's age with the instruction each has
	// reached; see firstUndoneSeq for how they are kept.
	undonePos int
	branchPos int
	// exposeScan is raised when a frontier moves or an invisible load
	// completes: the only two ways a load becomes exposable, so
	// defenseMaintenance looks at the load queue only then.
	exposeScan bool

	// retry holds, oldest first, the loads memMaintenance must run through
	// disambiguation again this cycle: those whose blocker just went away
	// (unpark), and those SafeBet stalls, which it counts cycle by cycle.
	// Every other load in memWaitingOlderStores is parked on its blocker's
	// chain and costs nothing until the blocker moves.
	retry []*dynInst

	// Issue queue. Its entries are the ROB instructions with inIQ set;
	// only the occupancy is kept (iqCount), plus the entries that could
	// issue: ready holds, oldest first, exactly those whose operands are
	// all latched. The others are parked on their producers' waiter chains
	// (waitNodes is the slab, waitFree its free chain) until a completion
	// wakes them — issue never visits an entry that is still waiting.
	iqCount   int
	ready     []*dynInst
	waitNodes []waitNode
	waitFree  int32

	// Post-commit store buffer.
	storeBuf       instRing
	drainsInFlight int                       // store-buffer drains plus an AMO's drain
	drainDone      func(memsys.AccessResult) // prebuilt StoreDrain completion (allocated once)

	// The AMO whose drain is in flight, and that drain's prebuilt
	// completion (allocated once). At most one AMO drain is in flight (see
	// executeAmoAtHead), so one (idx, seq) names it.
	amoIdx  int32
	amoSeq  uint64
	amoDone func(memsys.AccessResult)

	seq              uint64
	fetchPC          uint64
	fetchStall       bool     // barrier/syscall/halt fetched: stop until it commits
	fetchDrain       bool     // front end parked by StopFetch (drain-to-quiesce)
	fetchWaitResolve *dynInst // indirect jump without prediction
	fetchResumeAt    event.Cycle

	// Fetch line buffer state.
	fetchLineVA   uint64
	fetchLineOK   bool
	fetchLinePend bool
	fetchPendLine uint64 // line VA of the in-flight ifetch translation
	fetchPendPC   uint64 // pc that requested it (for fault synthesis)
	fetchEpoch    uint64 // invalidates in-flight ifetches across squashes

	halted           bool
	haltedBad        bool // halted by running off text or faulting on the committed path
	commitStallUntil event.Cycle

	// Sleep. moved records whether the current Tick changed anything; one
	// that did not would change nothing next cycle either, so the core
	// sleeps: wakeAt is the first cycle at which time alone makes a stage
	// behave differently (never, if none will), Tick returns at once before
	// it, and every delivery to the core — a completion, an event, a poke
	// from the system — clears it (wake). Zero while awake.
	moved  bool
	wakeAt event.Cycle
	// ticksRun counts the Ticks that were not slept through and
	// retriesParked the memMaintenance retries that found their load still
	// blocked; neither is simulated state (tests and PERF.md read them).
	ticksRun      uint64
	retriesParked uint64

	// Cached text-segment mapping from the most recent ifetch translation,
	// used to derive instruction physical addresses at commit.
	fetchVirtBase uint64
	fetchPhysBase mem.Addr

	// OnSyscall is invoked when a syscall commits; it returns the number
	// of stall cycles to charge and performs any domain-switch work (the
	// system installs it). Nil means syscalls cost only SyscallCost.
	OnSyscall func(*Core) event.Cycle

	// FU busy-until times for the unpipelined divider slots.
	divFree []event.Cycle

	// Committed-footprint sets (nil except under the footprint action):
	// data lines by physical address, code lines by virtual address.
	sbData lineSet[mem.Addr]
	sbCode lineSet[uint64]

	// ctr holds the counters counters declares, indexed by Counter.
	ctr [numCounters]uint64
}

// NewCore builds a core attached to a memory port.
func NewCore(id int, cfg Config, sched *event.Scheduler, port *memsys.Port, phys *mem.Physical) *Core {
	c := &Core{
		id:      id,
		cfg:     cfg,
		sched:   sched,
		port:    port,
		phys:    phys,
		pred:    bpred.New(bpred.DefaultConfig()),
		divFree: make([]event.Cycle, cfg.MulDivs),
	}
	if int(cfg.Defense) < len(defenses) {
		c.pol = defenses[cfg.Defense].pol
	}
	c.drainDone = func(memsys.AccessResult) {
		c.wake()
		c.drainsInFlight--
	}
	c.amoDone = func(memsys.AccessResult) {
		c.wake()
		c.drainsInFlight--
		if d := c.inst(uint64(uint32(c.amoIdx)), c.amoSeq); d != nil {
			c.complete(d)
			d.phase = memDone
		}
	}
	c.rob.init(cfg.ROBSize)
	c.storeBuf.init(cfg.StoreBufferSize)
	c.ready = make([]*dynInst, 0, cfg.IQSize)
	// Slot 0 is the nil link. An entry waits on at most two producers; the
	// slab grows past that only while squashes leave stale nodes behind.
	c.waitNodes = make([]waitNode, 1, 1+2*cfg.IQSize)
	// The load queue and its retry list share one array, each with its own
	// capacity: the retry list holds load-queue entries only.
	loads := make([]*dynInst, 2*cfg.LQSize)
	c.lq = loads[:0:cfg.LQSize]
	c.retry = loads[cfg.LQSize:cfg.LQSize]
	c.sq = make([]*dynInst, 0, cfg.SQSize)
	c.growPool()
	if port != nil {
		port.SetClient(c)
	}
	return c
}

// Release ends the core's life: its instruction window, rename snapshots
// and predictor tables go back to be borrowed by the next core. Every
// in-flight instruction is dropped with them, so the core must not be
// ticked again; a second Release does nothing.
func (c *Core) Release() {
	for _, chunk := range c.instChunks {
		instPool.Put(chunk)
	}
	for _, chunk := range c.snapChunks {
		snapPool.Put(chunk)
	}
	c.instChunks, c.snapChunks = nil, nil
	c.insts, c.freeList, c.snapFree = nil, nil, nil
	c.pred.Release()
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Port returns the memory port.
func (c *Core) Port() *memsys.Port { return c.port }

// Predictor exposes the branch predictor (the system flushes its BTB on
// domain switches when modelling BTB isolation).
func (c *Core) Predictor() *bpred.Predictor { return c.pred }

// SetProgram loads a program: architectural registers are cleared, the
// stack pointer initialised and fetch redirected to the entry point. The
// core only reads p, which other machines may be running too.
func (c *Core) SetProgram(p *isa.Program) {
	c.wake()
	c.prog = p
	for i := range c.regs {
		c.regs[i] = 0
	}
	c.regs[isa.SP] = isa.StackTop
	c.fetchPC = p.Entry
	c.halted = false
	c.haltedBad = false
	c.flushPipeline()
}

// Halted reports whether the core has committed a halt.
func (c *Core) Halted() bool { return c.halted }

// HaltedBad reports an abnormal halt (committed off-text fetch or fault).
func (c *Core) HaltedBad() bool { return c.haltedBad }

// Reg reads an architectural register (test/scenario hook).
func (c *Core) Reg(r isa.Reg) uint64 { return c.regs[r] }

// SetReg writes an architectural register (scenario setup hook).
func (c *Core) SetReg(r isa.Reg, v uint64) {
	c.wake()
	c.regs[r] = v
}

// PC returns the current fetch PC.
func (c *Core) PC() uint64 { return c.fetchPC }

// Drained reports whether all post-commit stores, and every AMO's drain,
// have drained.
func (c *Core) Drained() bool { return c.storeBuf.len() == 0 && c.drainsInFlight == 0 }

// StopFetch parks the front end: no new instructions are fetched or
// dispatched until ResumeFetch. Everything already in flight keeps
// executing and retiring, which is how a drain-to-quiesce empties the
// pipeline without losing architectural work.
func (c *Core) StopFetch() {
	c.wake()
	c.fetchDrain = true
}

// ResumeFetch reopens the front end after a StopFetch drain. The fetch PC
// and line-buffer state are untouched, so execution continues exactly
// where the drain interrupted it (modulo the refill latency a context
// switch would also pay).
func (c *Core) ResumeFetch() {
	c.wake()
	c.fetchDrain = false
}

// CommittedInsts reports the number of committed instructions.
func (c *Core) CommittedInsts() uint64 { return c.ctr[Committed] }

// SetPC redirects fetch (context-switch restore). The pipeline must be
// empty (SetProgram flushes it).
func (c *Core) SetPC(pc uint64) {
	c.wake()
	c.fetchPC = pc
}

// Stall blocks both fetch and commit for d cycles (OS overhead such as a
// context switch or timer tick).
func (c *Core) Stall(d event.Cycle) {
	c.wake()
	until := c.sched.Now() + d
	if until > c.commitStallUntil {
		c.commitStallUntil = until
	}
	if until > c.fetchResumeAt {
		c.fetchResumeAt = until
	}
}

// flushPipeline empties all pipeline state (context switch or program load).
func (c *Core) flushPipeline() {
	for i := 0; i < c.rob.len(); i++ {
		d := c.rob.at(i)
		d.squashed = true
		c.freeInst(d)
	}
	c.rob.clear()
	c.undonePos, c.branchPos, c.exposeScan = 0, 0, false
	c.ready = c.ready[:0]
	c.iqCount = 0
	c.lq = c.lq[:0]
	c.sq = c.sq[:0]
	c.retry = c.retry[:0]
	for i := range c.rename {
		c.rename[i] = nil
		c.renameSeq[i] = 0
	}
	c.fetchStall = false
	c.fetchWaitResolve = nil
	c.fetchLineOK = false
	c.fetchLinePend = false
	c.fetchEpoch++
	c.fetchResumeAt = 0
}

// Tick advances the core by one cycle, unless the core is asleep: then
// the cycle would change nothing and is not run. The caller advances the
// shared event scheduler.
func (c *Core) Tick() {
	if c.sched.Now() < c.wakeAt {
		return
	}
	c.tick()
}

// tick runs the pipeline stages for one cycle and, when none of them
// changed anything, puts the core to sleep. Nothing a stage reads can then
// change before a delivery — which wakes the core — except the clock, so
// every following cycle would be as empty as this one until the first
// time-gated condition opens (nextTimedWake).
func (c *Core) tick() {
	c.ticksRun++
	c.moved = false
	if c.halted {
		// The pipeline is stopped but the store buffer keeps draining.
		c.drainStores()
	} else {
		c.commit()
		c.drainStores()
		c.memMaintenance()
		c.defenseMaintenance()
		c.issue()
		c.fetchAndDispatch()
	}
	c.wakeAt = 0
	if !c.moved {
		c.wakeAt = c.nextTimedWake()
	}
}

// wake ends the core's sleep. Everything that hands the core something —
// HandleEvent, the memory port's typed completions, the store-buffer and
// AMO drain completions, and the system's pokes (Stall, StopFetch,
// ResumeFetch, SetProgram, SetPC, SetReg, FlushSpecFootprint, WarmHalt,
// Restore) — calls it first, whether or not what it delivers turns out to
// matter: an unnecessary wake costs one empty tick, a missing one hangs
// the core.
func (c *Core) wake() { c.wakeAt = 0 }

// AsleepUntil reports the cycle before which the core's Tick does nothing
// (barring a delivery, which wakes it): zero for a core that is awake,
// the maximum Cycle for one that only a delivery can wake.
func (c *Core) AsleepUntil() event.Cycle { return c.wakeAt }

// nextTimedWake is the first cycle after now at which a stage's time gate
// opens: commit's stall, fetch's redirect penalty, the front-end delay of
// the oldest ready-list entry still in it. Waking early is harmless (the
// tick is empty and the core sleeps again), so the gates are not weighed
// against what is actually waiting behind them. A busy divider is not among
// them: it comes free in the very cycle its divide's completion event
// fires, and that delivery wakes the core.
func (c *Core) nextTimedWake() event.Cycle {
	at := ^event.Cycle(0)
	if c.halted {
		return at // only a finished drain lets a halted core do more
	}
	now := c.sched.Now()
	if c.commitStallUntil > now {
		at = c.commitStallUntil
	}
	if c.fetchResumeAt > now && c.fetchResumeAt < at {
		at = c.fetchResumeAt
	}
	for _, d := range c.ready {
		if r := event.Cycle(d.readyCycle); r > now {
			at = min(at, r) // readyCycle never decreases along the list
			break
		}
	}
	return at
}

// --- Commit ---

func (c *Core) commit() {
	if c.sched.Now() < c.commitStallUntil {
		return
	}
	for n := 0; n < c.cfg.CommitWidth && c.rob.len() > 0; n++ {
		d := c.rob.at(0)
		if !c.commitReady(d) {
			return
		}
		if d.faulted {
			// A memory fault reached the committed path: the program is
			// broken (wrong-path faults are squashed before this point).
			c.moved = true
			c.halted = true
			c.haltedBad = true
			return
		}
		// Architectural effects.
		if d.writesReg {
			c.regs[d.destReg] = d.result
			if c.rename[d.destReg] == d {
				c.rename[d.destReg] = nil
				c.renameSeq[d.destReg] = 0
			}
		}
		cls := d.si.Class
		switch cls {
		case isa.ClassLoad:
			if !d.forwarded {
				c.port.CommitLoad(d.pc, mem.VAddr(d.effAddr), d.paddr)
			}
			// Promote the page's translation from the filter TLB to the
			// main TLB: the commit makes it non-speculative regardless of
			// whether this particular instruction performed the walk.
			c.port.CommitTranslation(mem.VAddr(d.effAddr), false)
			c.removeFromLQ(d)
		case isa.ClassStore:
			if c.storeBuf.len() >= c.cfg.StoreBufferSize {
				return // retry next cycle
			}
			d.v2 = c.storeData(d)
			// Latch the data: the producer link must not be consulted
			// after commit (the producer's slot may be recycled, and the
			// architectural register may be overwritten by younger commits
			// before a load forwards from the store buffer).
			d.src2 = nil
			d.v2Ready = true
			c.storeBuf.push(d)
			c.port.CommitTranslation(mem.VAddr(d.effAddr), false)
			c.removeFromSQ(d)
		case isa.ClassAmo:
			// Committing is what releases the loads ordered behind an AMO.
			c.removeFromSQ(d)
			c.unpark(d)
		case isa.ClassSyscall:
			c.ctr[Syscalls]++
			cost := c.cfg.SyscallCost
			if c.OnSyscall != nil {
				cost += c.OnSyscall(c)
			}
			c.commitStallUntil = c.sched.Now() + cost
			c.fetchStall = false
		case isa.ClassBarrier:
			c.fetchStall = false
		case isa.ClassFlush:
			c.port.FlushDomain()
		case isa.ClassHalt:
			c.moved = true
			c.halted = true
			c.haltedBad = d.synthetic
			c.retire()
			c.ctr[Committed]++
			c.freeInst(d)
			return
		}
		if c.pol.unsafe == footprint {
			c.footprintCommit(d) // after a syscall's domain switch has cleared the footprint
		}
		c.port.CommitIfetch(c.instPaddr(d.pc))
		c.port.CommitTranslation(mem.VAddr(d.pc), true)
		c.moved = true
		c.retire()
		c.ctr[Committed]++

		// Stores stay alive in the store buffer and are freed after the
		// drain; everything else is dead once it leaves the ROB.
		if cls != isa.ClassStore {
			c.freeInst(d)
		}
		if cls == isa.ClassSyscall {
			return // serialise
		}
	}
}

// commitReady reports whether the ROB head can retire this cycle, and
// triggers head-of-ROB work (NACK reissue, AMO execution, the exposure of
// an invisible load).
func (c *Core) commitReady(d *dynInst) bool {
	switch {
	case d.isAmo():
		if !d.done {
			c.executeAmoAtHead(d)
			return false
		}
		return true
	case d.isLoad():
		if d.phase == memNACKed {
			c.reissueLoad(d)
			return false
		}
		if !d.done {
			return false
		}
		if d.needsExpose && !d.exposeDone {
			// The line must still reach the caches: validate holds commit
			// until the exposure lands, expose only starts it.
			c.exposeLoad(d)
			return c.pol.unsafe != validate
		}
		return true
	case d.isStore():
		// Stores need address generation done; data is available because
		// every older instruction has committed.
		return d.phase >= memTranslated && !d.faulted
	default:
		return d.done
	}
}

func (c *Core) storeData(d *dynInst) uint64 {
	if d.use2 {
		if p := d.src2; p != nil {
			if p.seq == d.src2Seq {
				return p.result
			}
			// Producer committed and was recycled: its value is
			// architectural (no younger writer can have committed while
			// this store is in flight).
			return c.regs[d.si.Src2]
		}
		return d.v2
	}
	return 0
}

// --- Store buffer drain ---

func (c *Core) drainStores() {
	for c.storeBuf.len() > 0 && c.drainsInFlight < c.cfg.MaxDrainsInFlight {
		d := c.storeBuf.popFront()
		c.moved = true
		c.drainsInFlight++
		// Functional memory is updated the moment the store leaves the
		// buffer, preserving per-core program order of visibility (the
		// cache/coherence timing completes asynchronously). Otherwise a
		// load could observe a stale value in the window where the store
		// is neither forwardable nor yet in memory.
		c.phys.Write64(d.paddr, d.v2)
		c.port.StoreDrain(d.pc, mem.VAddr(d.effAddr), d.paddr, c.drainDone)
		c.freeInst(d)
	}
}

// --- Fetch & dispatch ---

func (c *Core) roomToDispatch() bool {
	return c.rob.len() < c.cfg.ROBSize && c.iqCount < c.cfg.IQSize
}

// instPaddr derives an instruction's physical address from the cached
// text-segment mapping recorded by the fetch path. Text is never remapped
// mid-run, so the linear offset holds.
func (c *Core) instPaddr(pc uint64) mem.Addr {
	return c.fetchPhysBase + mem.Addr(pc-c.fetchVirtBase)
}

func (c *Core) fetchAndDispatch() {
	if c.fetchDrain || c.fetchStall || c.halted || c.fetchWaitResolve != nil {
		return
	}
	if c.sched.Now() < c.fetchResumeAt {
		return
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if !c.roomToDispatch() {
			return
		}
		if !c.fetchLineReady(c.fetchPC) {
			return
		}
		si, ok := c.prog.StaticAt(c.fetchPC)
		if !ok {
			// Ran off the text segment (usually wrong path): synthesize a
			// halt; a squash will clean it up, a commit means a real end.
			d := c.dispatch(&syntheticHalt, c.fetchPC)
			d.synthetic = true
			c.fetchStall = true
			return
		}
		cls := si.Class
		d := c.dispatch(si, c.fetchPC)
		c.ctr[Fetched]++

		switch cls {
		case isa.ClassBranch:
			pr := c.pred.PredictBranch(c.fetchPC)
			d.pred = pr
			d.hasPred = true
			d.checkpoint = c.allocSnap()
			if pr.Taken && pr.BTBHit {
				d.predNext = pr.Target
			} else {
				d.predNext = c.fetchPC + isa.InstBytes
			}
			c.fetchPC = d.predNext
			if pr.Taken && pr.BTBHit {
				return // taken branch ends the fetch group
			}
		case isa.ClassJump:
			// Direct target known at decode: never mispredicts.
			if si.Inst.Op == isa.OpCall {
				c.pred.PredictCall(d.pc, d.pc+isa.InstBytes)
			}
			d.predNext = uint64(si.Inst.Imm)
			c.fetchPC = d.predNext
			return
		case isa.ClassJumpInd:
			var pr bpred.Prediction
			if si.Inst.Op == isa.OpRet {
				pr = c.pred.PredictRet(d.pc)
			} else {
				pr = c.pred.PredictJump(d.pc)
			}
			d.pred = pr
			d.hasPred = true
			d.checkpoint = c.allocSnap()
			if pr.BTBHit && pr.Target != 0 {
				d.predNext = pr.Target
				c.fetchPC = pr.Target
				return
			}
			// No prediction: stall fetch until the jump resolves.
			d.predNext = 0
			c.fetchWaitResolve = d
			return
		case isa.ClassBarrier, isa.ClassSyscall, isa.ClassHalt, isa.ClassFlush:
			c.fetchPC += isa.InstBytes
			if cls != isa.ClassFlush {
				c.fetchStall = true
				return
			}
		default:
			c.fetchPC += isa.InstBytes
		}
	}
}

// fetchLineReady ensures the instruction line containing pc has been
// fetched through the instruction cache path, issuing the access when
// needed. Completions arrive through TranslateDone/IfetchDone with the
// fetch epoch as the staleness check.
func (c *Core) fetchLineReady(pc uint64) bool {
	line := mem.LineAddr(pc)
	if c.fetchLineOK && c.fetchLineVA == line {
		return true
	}
	if c.fetchLinePend {
		return false
	}
	c.moved = true
	if c.pol.unsafe == footprint && !c.sbCode.has(line) && !c.loadSafe(c.seq+1) {
		// A fetch outside the committed code footprint (e.g. through a
		// mistrained BTB) may not touch the memory system while the next
		// instruction would not be safe; retry next cycle. The stall is
		// counted per cycle, so the core stays awake through it.
		c.ctr[SafeBetStalls]++
		return false
	}
	c.fetchLinePend = true
	c.fetchPendLine = line
	c.fetchPendPC = pc
	c.port.TranslateC(mem.VAddr(line), true, true, fetchHandle, c.fetchEpoch)
	return false
}

func (c *Core) fetchStallOnFault(pc uint64) {
	if c.fetchDrain {
		// Front end parked by a drain: drop the fault; the retry after
		// ResumeFetch re-translates and re-faults deterministically.
		return
	}
	if !c.roomToDispatch() {
		// Rare: retry via the pending flag staying clear.
		return
	}
	d := c.dispatch(&syntheticHalt, pc)
	d.synthetic = true
	c.fetchStall = true
}

// dispatch takes a pooled dynInst, renames its operands and inserts it
// into the ROB/IQ/LSQ.
func (c *Core) dispatch(si *isa.StaticInst, pc uint64) *dynInst {
	c.moved = true
	d := c.allocInst()
	d.pc = pc
	d.si = si
	d.readyCycle = uint64(c.sched.Now() + c.cfg.FrontendDelay)
	d.use1, d.use2 = si.Use1, si.Use2
	if si.Use1 {
		if si.Src1 == isa.Zero {
			d.v1, d.v1Ready = 0, true
		} else if p := c.rename[si.Src1]; p != nil && p.seq == c.renameSeq[si.Src1] {
			d.src1, d.src1Seq = p, p.seq
			if p.done && !p.faulted {
				d.v1, d.v1Ready = p.result, true
			}
		} else {
			d.v1, d.v1Ready = c.regs[si.Src1], true
		}
	}
	if si.Use2 {
		if si.Src2 == isa.Zero {
			d.v2, d.v2Ready = 0, true
		} else if p := c.rename[si.Src2]; p != nil && p.seq == c.renameSeq[si.Src2] {
			d.src2, d.src2Seq = p, p.seq
			if p.done && !p.faulted {
				d.v2, d.v2Ready = p.result, true
			}
		} else {
			d.v2, d.v2Ready = c.regs[si.Src2], true
		}
	}
	if si.Writes {
		d.writesReg = true
		d.destReg = si.Dest
		c.rename[si.Dest] = d
		c.renameSeq[si.Dest] = d.seq
	}
	// Taint propagation at dispatch (operand roots recorded; safety checked
	// lazily at issue time).
	if c.pol.unsafe == taint {
		d.taintRoot, d.taintSeq = c.operandTaint(d)
	}

	c.rob.push(d)
	switch si.Class {
	case isa.ClassLoad:
		c.lq = append(c.lq, d)
		c.enterIQ(d)
	case isa.ClassStore:
		c.sq = append(c.sq, d)
		c.enterIQ(d)
	case isa.ClassAmo:
		// AMOs execute at the ROB head; no IQ entry. They sit in the SQ
		// so younger loads order behind them (acquire semantics).
		c.sq = append(c.sq, d)
	case isa.ClassNop, isa.ClassSyscall, isa.ClassBarrier, isa.ClassFlush, isa.ClassHalt:
		c.complete(d)
	case isa.ClassJump:
		// Direct jumps complete at dispatch (target known).
		r := isa.Exec(si.Inst, pc, 0, 0)
		d.result = r.Value
		c.complete(d)
	default:
		c.enterIQ(d)
	}
	return d
}

// --- Typed memory-port completions (memsys.Client) ---

// TranslateDone receives a TranslateC completion: either the fetch engine's
// line translation (idx == fetchHandle, seq == fetch epoch) or a load,
// store or AMO address translation.
func (c *Core) TranslateDone(idx int32, seq uint64, pa mem.Addr, fault bool) {
	c.wake()
	if idx == fetchHandle {
		if seq != c.fetchEpoch {
			return
		}
		if fault {
			// Wrong-path fetch into unmapped memory: synthesize a halt at
			// dispatch by leaving the line not-ready and parking fetch.
			c.fetchLinePend = false
			c.fetchStallOnFault(c.fetchPendPC)
			return
		}
		line := c.fetchPendLine
		c.fetchVirtBase = line
		c.fetchPhysBase = pa
		c.port.IfetchC(mem.VAddr(line), pa, c.fetchEpoch)
		// Next-line instruction prefetch: sequential fetch engines run a
		// line ahead, so straight-line code does not pay the per-line
		// lookup latency serially. Same page only; nobody waits for it.
		next := line + mem.LineBytes
		if mem.PageNum(mem.VAddr(next)) == mem.PageNum(mem.VAddr(line)) {
			c.port.Ifetch(mem.VAddr(next), pa+mem.LineBytes, nil)
		}
		return
	}
	d := c.inst(uint64(uint32(idx)), seq)
	if d == nil {
		return
	}
	if d.isAmo() {
		c.amoAccess(d, pa, fault)
		return
	}
	if fault {
		d.faulted = true
		d.result = 0
		c.complete(d)
		d.phase = memDone
		return
	}
	d.paddr = pa
	d.phase = memTranslated
	if d.isStore() {
		// Stores are done once the address is known; data is read
		// at commit. MuonTrap lets them prefetch their line.
		c.complete(d)
		if !d.prefetched {
			d.prefetched = true
			// The footprint action also vetoes the speculative
			// store-prefetch channel for lines outside it.
			if c.pol.unsafe != footprint || c.loadSafe(d.seq) || c.sbData.has(d.paddr) {
				c.port.StorePrefetch(d.pc, mem.VAddr(d.effAddr), d.paddr)
			}
		}
		return
	}
	if c.tryLoadAccess(d) {
		c.retry = insertBySeq(c.retry, d)
	}
}

// LoadDone receives a LoadC, LoadNoFill or LoadExpose completion. A load
// that is exposing has its data already: what lands is the exposure, a
// non-speculative read, which never NACKs.
func (c *Core) LoadDone(idx int32, seq uint64, res memsys.AccessResult) {
	c.wake()
	d := c.inst(uint64(uint32(idx)), seq)
	if d == nil {
		return
	}
	if d.exposing {
		d.exposing = false
		d.exposeDone = true
		return
	}
	if res.NACK {
		c.ctr[LoadNACKs]++
		d.phase = memNACKed
		return
	}
	c.finishLoad(d)
}

// IfetchDone receives the fetch line's IfetchC completion.
func (c *Core) IfetchDone(epoch uint64, _ memsys.AccessResult) {
	c.wake()
	if epoch != c.fetchEpoch {
		return
	}
	c.fetchLinePend = false
	c.fetchLineOK = true
	c.fetchLineVA = c.fetchPendLine
}
