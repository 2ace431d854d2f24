package sim

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/tlb"
)

// Config describes a whole machine.
type Config struct {
	CPU cpu.Config
	Mem memsys.Config

	// ContextSwitchCost is the OS overhead charged to a core on a context
	// switch, in cycles.
	ContextSwitchCost event.Cycle
	// TimerInterval fires a periodic OS timer tick per core when non-zero
	// (full-system runs); each tick costs TimerCost and switches
	// protection domain (flushing filter state under MuonTrap).
	TimerInterval event.Cycle
	TimerCost     event.Cycle
	// BTBIsolation flushes the branch-target buffer on domain switches,
	// modelling the Arm v8.5 / eIBRS hardware the paper assumes for
	// variant-2 protection (§4.9).
	BTBIsolation bool
}

// DefaultConfig builds the paper's Table 1 machine with n cores and no
// protections enabled.
func DefaultConfig(cores int) Config {
	return Config{
		CPU:               cpu.DefaultConfig(),
		Mem:               memsys.DefaultConfig(cores),
		ContextSwitchCost: 1000,
		TimerCost:         2000,
	}
}

// Process is one address space plus its saved execution contexts (one per
// hardware thread it may run on).
type Process struct {
	PID  uint64
	Prog *isa.Program
	PT   *tlb.PageTable

	// Saved per-thread contexts, keyed by thread index.
	contexts map[int]*threadCtx
}

type threadCtx struct {
	regs    [isa.NumRegs]uint64
	pc      uint64
	started bool
	halted  bool
}

// System is the whole machine.
type System struct {
	cfg   Config
	Sched *event.Scheduler
	Phys  *mem.Physical
	Hier  *memsys.Hierarchy
	Cores []*cpu.Core

	procs     []*Process
	running   []*Process // per core
	runThread []int      // per core: thread index within the process
	nextASID  uint64
	nextFrame uint64
	// sharedFrames maps a shared segment's base VA to its allocated
	// frames so every process maps the same physical memory.
	sharedFrames map[uint64]uint64
	// sharedText maps a program to its text frames so multiple processes
	// of the same binary share instruction memory (as mmap'd executables
	// and shared libraries do).
	sharedText map[*isa.Program]uint64

	nextTimer []event.Cycle

	released bool // set by Release: the machine must not run again

	// rows are the machine's checkpoint sections (checkpointRows), and
	// image what the "machine" row walks beyond the system's own fields.
	rows  []checkpoint.Row
	image machineImage

	// Mid-run resume state: set by RestoreSnapshot when the snapshot was
	// taken by CheckpointAt. resumeBase is the cycle the measured region
	// originally started, so RunUntilHalt on the restored machine reports
	// Cycles as the same delta the uninterrupted run would.
	resumedMidRun bool
	resumeBase    event.Cycle

	// Stats.
	ContextSwitches uint64
	TimerTicks      uint64
	// WarmedInsts counts instructions executed architecturally by Warmup
	// (the checkpoint fast-forward); they are not part of the measured
	// region and are excluded from per-core Committed counts.
	WarmedInsts uint64
	// CheckpointsTaken counts mid-run drain-to-quiesce checkpoints
	// (including any before a crash-resume: the count is carried in the
	// snapshot so interrupted and uninterrupted runs report the same
	// total).
	CheckpointsTaken uint64

	// OnCheckpointSample, when non-nil, observes the scheduler's pending
	// event count each time RunUntilHaltCkpt reaches a checkpoint
	// boundary — immediately before the drain, so the sample reflects
	// live queue pressure. It is a pure observation hook: it must not
	// touch simulated state, and when nil (the default, and always the
	// case in golden/determinism tests) the cycle loop is unchanged.
	OnCheckpointSample func(pending int)
}

// New builds a machine.
func New(cfg Config) *System {
	sched := event.NewScheduler()
	phys := mem.NewPhysical()
	hier := memsys.New(sched, phys, cfg.Mem)
	s := &System{
		cfg:          cfg,
		Sched:        sched,
		Phys:         phys,
		Hier:         hier,
		nextASID:     1,
		nextFrame:    0x10000, // leave low frames for page tables
		sharedFrames: make(map[uint64]uint64),
		sharedText:   make(map[*isa.Program]uint64),
		running:      make([]*Process, cfg.Mem.Cores),
		runThread:    make([]int, cfg.Mem.Cores),
		nextTimer:    make([]event.Cycle, cfg.Mem.Cores),
	}
	for i := 0; i < cfg.Mem.Cores; i++ {
		core := cpu.NewCore(i, cfg.CPU, sched, hier.Port(i), phys)
		core.OnSyscall = s.handleSyscall
		s.Cores = append(s.Cores, core)
		if cfg.TimerInterval > 0 {
			s.nextTimer[i] = cfg.TimerInterval
		}
	}
	return s
}

// Release ends the machine's life: the tables it was built on (cache-line
// arrays, physical frames, predictor tables, each core's instruction window
// and rename snapshots, the event queue's bucket slab) go back to be
// borrowed by the next machine built in this process, and every pending
// event is dropped. Call it once the machine's results have been
// collected. Stepping the machine afterwards panics, and so does any other
// later use at its first table access; a second Release does nothing, and
// a machine that is never released is simply collected.
func (s *System) Release() {
	s.released = true
	s.rows = nil
	s.Sched.Release()
	s.Phys.Release()
	s.Hier.Release()
	for _, c := range s.Cores {
		c.Release()
	}
}

func (s *System) allocFrames(n uint64) uint64 {
	base := s.nextFrame
	s.nextFrame += n
	return base
}

// NewProcess loads a program into a fresh address space: text mapped
// physically contiguous, data segments mapped (shared segments reuse the
// same frames across processes), and a stack region.
func (s *System) NewProcess(prog *isa.Program) *Process {
	asid := s.nextASID
	s.nextASID++
	// Page-table pages for the walker live in a low per-process region.
	pt := tlb.NewPageTable(asid, mem.Addr(asid*0x40_0000))
	p := &Process{PID: asid, Prog: prog, PT: pt, contexts: make(map[int]*threadCtx)}

	// Text: contiguous frames (instPaddr in the core depends on this),
	// shared between processes running the same binary.
	textPages := (uint64(len(prog.Text))*isa.InstBytes + mem.PageBytes - 1) / mem.PageBytes
	if textPages == 0 {
		textPages = 1
	}
	textBase, ok := s.sharedText[prog]
	if !ok {
		textBase = s.allocFrames(textPages)
		s.sharedText[prog] = textBase
	}
	pt.MapRange(isa.TextBase>>mem.PageShift, textBase, textPages)

	// Data segments. A segment may start mid-page, so the page count runs
	// from the page holding its first byte to the one holding its last.
	// Segments that share a page each map it and the last mapping wins,
	// which loses nothing while the earlier segments read zero there; one
	// that would hide an earlier segment's non-zero bytes is refused.
	var inited []isa.DataSegment
	for _, seg := range prog.Data {
		vpn := seg.Base >> mem.PageShift
		off := seg.Base % mem.PageBytes
		pages := (off + seg.Len() + mem.PageBytes - 1) / mem.PageBytes
		for _, old := range inited {
			if hidesBytes(old, vpn, pages) {
				panic(fmt.Sprintf("sim: program %q: segment %q remaps a page holding segment %q's initialised bytes",
					prog.Name, seg.Name, old.Name))
			}
		}
		if len(seg.Bytes) > 0 {
			inited = append(inited, seg)
		}
		var pfn uint64
		mapped := false
		if seg.Shared {
			pfn, mapped = s.sharedFrames[seg.Base]
		}
		if !mapped {
			// Whoever allocates the frames initialises them; a later process
			// mapping a shared segment sees its live contents. Fresh frames
			// read as zero, so a zero-fill segment (nil Bytes) writes nothing.
			pfn = s.allocFrames(pages)
			if seg.Shared {
				s.sharedFrames[seg.Base] = pfn
			}
			s.Phys.WriteData(mem.Addr(pfn<<mem.PageShift+off), seg.Bytes)
		}
		pt.MapRange(vpn, pfn, pages)
	}

	// Stack: 64KiB below StackTop per thread slot 0; extra threads get
	// their own stacks at AddThread time.
	stackPages := uint64(16)
	stackVPN := (isa.StackTop >> mem.PageShift) - stackPages
	pt.MapRange(stackVPN, s.allocFrames(stackPages), stackPages)

	p.contexts[0] = &threadCtx{pc: prog.Entry}
	p.contexts[0].regs[isa.SP] = isa.StackTop
	s.procs = append(s.procs, p)
	return p
}

// hidesBytes reports whether mapping pages pages from vpn covers a non-zero
// initial byte of seg.
func hidesBytes(seg isa.DataSegment, vpn, pages uint64) bool {
	lo := max(vpn<<mem.PageShift, seg.Base)
	hi := min((vpn+pages)<<mem.PageShift, seg.Base+uint64(len(seg.Bytes)))
	return lo < hi && slices.ContainsFunc(seg.Bytes[lo-seg.Base:hi-seg.Base], func(b byte) bool { return b != 0 })
}

// AddThread prepares an additional execution context (for Parsec-style
// multithreaded runs): same address space, own stack, thread id in X10,
// entry at the given label address.
func (s *System) AddThread(p *Process, thread int, entry uint64) {
	stackPages := uint64(16)
	stackVPN := (isa.StackTop >> mem.PageShift) - stackPages*uint64(thread+2)
	p.PT.MapRange(stackVPN, s.allocFrames(stackPages), stackPages)
	ctx := &threadCtx{pc: entry}
	ctx.regs[isa.SP] = (stackVPN + stackPages) << mem.PageShift
	ctx.regs[isa.X(10)] = uint64(thread)
	p.contexts[thread] = ctx
}

// RunOn context-switches core onto process p's given thread.
func (s *System) RunOn(core int, p *Process, thread int) {
	c := s.Cores[core]
	if cur := s.running[core]; cur != nil {
		// Save outgoing context.
		ctx := cur.contexts[s.runThread[core]]
		for r := 0; r < isa.NumRegs; r++ {
			ctx.regs[r] = c.Reg(isa.Reg(r))
		}
		ctx.pc = c.PC()
		ctx.halted = c.Halted()
		s.domainSwitch(core)
		s.ContextSwitches++
		c.Stall(s.cfg.ContextSwitchCost)
	}
	s.running[core] = p
	s.runThread[core] = thread
	ctx := p.contexts[thread]
	s.Hier.Port(core).SetProcess(p.PID, p.PT)
	c.SetProgram(p.Prog)
	for r := 0; r < isa.NumRegs; r++ {
		c.SetReg(isa.Reg(r), ctx.regs[r])
	}
	if ctx.started {
		c.SetPC(ctx.pc)
	} else {
		ctx.started = true
	}
}

// domainSwitch performs the protection-domain work on a core: flush filter
// state (a no-op in unprotected modes) and optionally the BTB.
func (s *System) domainSwitch(core int) {
	if s.cfg.Mem.Mode.FilterProtect {
		s.Hier.Port(core).FlushDomain()
	}
	// SafeBet: a domain switch invalidates the committed footprint, so one
	// domain's accesses never pre-authorise another's speculation. Core-
	// local state only; a no-op for other defense models.
	s.Cores[core].FlushSpecFootprint()
	if s.cfg.BTBIsolation {
		s.Cores[core].Predictor().FlushBTB()
	}
}

// handleSyscall is installed as every core's syscall callback: kernel
// entry is a protection-domain switch (§4.3).
func (s *System) handleSyscall(c *cpu.Core) event.Cycle {
	s.domainSwitch(c.ID())
	return 0
}

// Step advances the machine by n cycles on the calling goroutine: each
// cycle ticks the cores in index order (timer first), then runs the event
// phase. That order is the simulated machine's arbitration between cores,
// so it is part of every golden. Cycles in which nothing can happen are
// not iterated (see cycle); the clock still ends exactly n cycles on.
func (s *System) Step(n int) {
	if n <= 0 {
		return
	}
	for end := s.Sched.Now() + event.Cycle(n); s.Sched.Now() < end; {
		s.cycle(end)
	}
}

// cycle runs one machine cycle — ticks, then the event phase — and then
// moves the clock over the dead cycles that follow it, never past end. A
// cycle is dead when every running core sleeps through it, no OS timer is
// due in it and no event fires in its event phase: nothing in the machine
// changes, so a caller that checks a condition between calls sees every
// state it would see stepping one cycle at a time. A sleeping core wakes
// at its wake-up time or on a delivery, and a delivery is an event or a
// poke between calls, so the dead stretch ends at the earliest wake-up
// time, timer or event.
func (s *System) cycle(end event.Cycle) {
	if s.released {
		panic("sim: machine stepped after Release")
	}
	idleUntil := end
	for ci, c := range s.Cores {
		if s.running[ci] == nil {
			continue // no process scheduled on this core
		}
		s.timerTick(ci, c)
		c.Tick()
		idleUntil = min(idleUntil, c.AsleepUntil())
		if s.cfg.TimerInterval > 0 {
			idleUntil = min(idleUntil, s.nextTimer[ci])
		}
	}
	s.Sched.TickOrSkipTo(idleUntil)
}

// timerTick fires the periodic OS timer on a core when due.
func (s *System) timerTick(ci int, c *cpu.Core) {
	if s.cfg.TimerInterval > 0 && s.Sched.Now() >= s.nextTimer[ci] {
		s.nextTimer[ci] = s.Sched.Now() + s.cfg.TimerInterval
		if !c.Halted() {
			s.TimerTicks++
			s.domainSwitch(ci)
			c.Stall(s.cfg.TimerCost)
		}
	}
}

// storeDrainBound caps the cycles a finished run waits for its committed
// stores to reach memory. A store drain is a handful of coherence
// transactions; one that outlasts this is stuck.
const storeDrainBound = 100_000

// drainStoreBuffers steps the halted machine until every core's store
// buffer is empty and no drain is in flight. A run whose stores never land
// has not finished; the error names the first core still holding some.
func (s *System) drainStoreBuffers() error {
	undrained := func() int {
		for ci, c := range s.Cores {
			if !c.Drained() {
				return ci
			}
		}
		return -1
	}
	for limit := s.Sched.Now() + storeDrainBound; undrained() >= 0; {
		if s.Sched.Now() >= limit {
			return fmt.Errorf("sim: core %d still holds undrained stores %d cycles after the last core halted",
				undrained(), storeDrainBound)
		}
		s.cycle(limit)
	}
	return nil
}

// nextCheckpointAfter returns the earliest start+k*every strictly after
// now. Computing the schedule from absolute time (rather than loop-local
// counters) is what keeps a restored run's checkpoints landing on the
// same cycles as the run that produced the snapshot.
func nextCheckpointAfter(start, every, now event.Cycle) event.Cycle {
	k := (now-start)/every + 1
	return start + k*every
}

// RunResult summarises a run.
type RunResult struct {
	Cycles    event.Cycle
	Committed uint64
	Counters  map[string]uint64
}

// IPC returns committed instructions per cycle.
func (r RunResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// RunUntilHalt runs until every active core halts (or maxCycles passes),
// then drains outstanding stores, and reports totals.
func (s *System) RunUntilHalt(maxCycles int) (RunResult, error) {
	return s.RunUntilHaltCtx(context.Background(), maxCycles)
}

// RunUntilHaltCtx is RunUntilHalt honoring context cancellation: the
// cycle loop polls ctx every 64 simulated cycles and returns ctx.Err()
// (so errors.Is(err, context.Canceled) holds) with an empty result when
// the context is cancelled mid-simulation. A context that can never be
// cancelled (ctx.Done() == nil, e.g. context.Background()) costs nothing.
func (s *System) RunUntilHaltCtx(ctx context.Context, maxCycles int) (RunResult, error) {
	return s.RunUntilHaltCkpt(ctx, maxCycles, 0, nil)
}

// CheckpointSink receives each mid-run snapshot taken by RunUntilHaltCkpt.
// Returning an error aborts the run with that error — the persistence
// layer's failure, or a test simulating a crash immediately after a
// checkpoint landed.
//
// The run owns the snapshot: it is valid until the sink returns, and the
// next checkpoint refills it. A sink writes it out before returning; one
// that keeps it must keep a copy (checkpoint.Decode(snap.Encode())).
type CheckpointSink func(*checkpoint.Snapshot) error

// RunUntilHaltCkpt is RunUntilHaltCtx with periodic mid-run checkpoints:
// when every > 0 the machine is drained to a quiescent boundary and
// snapshotted each time the run crosses a multiple of every cycles
// (measured from the measured region's start), and each snapshot is
// handed to sink (which may be nil to drain without keeping snapshots —
// useful for reproducing a checkpointed run's exact timing). Every
// checkpoint of the run is taken into one image, which Snapshot.Reset
// empties and the next checkpoint refills, its section buffers reused:
// the sink sees the same *checkpoint.Snapshot each time (see
// CheckpointSink). CheckpointAt and Checkpoint, whose images callers
// keep, build a new one each call.
//
// Draining costs simulated cycles, so a checkpointed run's timing differs
// from an uncheckpointed one — but it is deterministic: two runs with the
// same cadence drain at the same points, and a run restored from any of
// the snapshots continues bit-identically to the run that produced it,
// including all later checkpoints. The checkpoint cadence is therefore
// part of a run's identity, exactly like its workload scale.
//
// On a machine restored from a mid-run snapshot the measured region's
// start comes from the snapshot, so reported Cycles, the remaining
// maxCycles budget and the checkpoint schedule all line up with the
// uninterrupted run's.
func (s *System) RunUntilHaltCkpt(ctx context.Context, maxCycles int, every event.Cycle, sink CheckpointSink) (RunResult, error) {
	done := ctx.Done()
	start := s.Sched.Now()
	if s.resumedMidRun {
		start = s.resumeBase
	}
	var next event.Cycle
	var img *checkpoint.Snapshot // the run's one image, refilled at every checkpoint
	if every > 0 {
		next = nextCheckpointAfter(start, every, s.Sched.Now())
	}
	for s.Sched.Now()-start < event.Cycle(maxCycles) {
		if done != nil {
			select {
			case <-done:
				return RunResult{}, ctx.Err()
			default:
			}
		}
		s.Step(64)
		all := true
		for ci, c := range s.Cores {
			if s.running[ci] != nil && !c.Halted() {
				all = false
				break
			}
		}
		if all {
			break
		}
		if every > 0 && s.Sched.Now() >= next {
			if s.OnCheckpointSample != nil {
				s.OnCheckpointSample(s.Sched.Pending())
			}
			s.CheckpointsTaken++
			if sink == nil {
				// Timing-only mode: drain exactly as a checkpointing run
				// would, skip building the (expensive) snapshot.
				if err := s.Drain(ctx); err != nil {
					return RunResult{}, fmt.Errorf("sim: mid-run checkpoint: %w", err)
				}
				s.ResumeFetch()
			} else {
				if img == nil {
					img = checkpoint.New()
				}
				if err := s.checkpointInto(ctx, img, start); err != nil {
					return RunResult{}, fmt.Errorf("sim: mid-run checkpoint: %w", err)
				}
				if err := sink(img); err != nil {
					return RunResult{}, err
				}
			}
			next = nextCheckpointAfter(start, every, s.Sched.Now())
		}
	}
	var res RunResult
	allHalted := true
	for ci, c := range s.Cores {
		if s.running[ci] != nil && !c.Halted() {
			allHalted = false
		}
		if c.HaltedBad() {
			return res, fmt.Errorf("core %d halted abnormally (off-text fetch or fault) after %d committed", ci, c.CommittedInsts())
		}
		res.Committed += c.CommittedInsts()
	}
	if !allHalted {
		return res, fmt.Errorf("run did not complete within %d cycles", maxCycles)
	}
	// Drain store buffers.
	if err := s.drainStoreBuffers(); err != nil {
		return res, err
	}
	res.Cycles = s.Sched.Now() - start
	res.Counters = s.counters()
	return res, nil
}
