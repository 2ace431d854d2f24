// Package sim assembles the full simulated machine: cores, the coherent
// memory hierarchy, processes with page tables, and the minimal OS
// behaviour the evaluation needs (program loading, context switches with
// protection-domain flushes, syscall handling, timer interrupts).
//
// Key types:
//
//   - System: the whole machine. Step/RunUntilHalt drive detailed
//     simulation; Warmup architecturally fast-forwards it; Checkpoint and
//     RestoreSnapshot serialise and reload complete machine state; Drain
//     brings a running machine to a checkpointable boundary (stop fetch,
//     retire the ROBs, complete MSHRs/walks/drains, run the event queue
//     dry), and CheckpointAt/RunUntilHaltCkpt build mid-run checkpoints
//     on top of it for crash-resume and sampling. Checkpoint and
//     CheckpointAt return a new image, which the caller owns;
//     RunUntilHaltCkpt refills one image at every checkpoint of a run,
//     valid in its CheckpointSink until the sink returns.
//   - Config: machine shape plus OS costs (context switch, timer) and the
//     BTB-isolation option of §4.9.
//   - Process: one address space (program, page table) plus saved
//     per-thread execution contexts.
//   - RunResult: cycles, committed instructions and the counter map of
//     one run, rendered from the machine's, memsys's and cpu's counter
//     tables (docs/OBSERVABILITY.md lists every key).
//
// Invariants:
//
//   - Determinism: a run is a pure function of (program, config). Cores
//     tick in index order within a cycle and the event queue fires in
//     (when, seq) order, so repeated runs are bit-identical — the property
//     the golden tests pin and the figure caches rely on.
//   - Dead cycles are not iterated. A cycle in which every core sleeps
//     (cpu.Core.AsleepUntil), no OS timer is due and no event fires changes
//     nothing, so Step moves the clock over a run of them in one
//     event.Scheduler.TickOrSkipTo — never past a wake-up time, a timer, an
//     event or the end of the Step. Step(n) still advances exactly n
//     cycles, and the drain loops, which poll a condition between cycles,
//     still stop on the cycle the condition first holds.
//   - A finished run's stores have landed: RunUntilHalt fails, naming the
//     core, if a store buffer has not drained 100 000 cycles after the
//     last core halted, rather than report a result with stores in flight.
//   - One machine, one goroutine: Step runs every core's tick and the
//     event phase on its caller's goroutine, and nothing in a System is
//     safe for concurrent use. Host parallelism lives one layer up, where
//     independent machines run side by side (the figures executor's
//     worker pool); ARCHITECTURE.md records why.
//   - Loading is layout, not copying: NewProcess gives every data segment
//     frame numbers and page-table entries for the pages it spans, writes
//     only initialised segments, and leaves zero-fill ones unbacked (see
//     the zero-fill contract in internal/mem). Frame numbers depend on
//     segment lengths alone, so how an image's zeroes are declared changes
//     no address, cycle or snapshot byte. A shared segment is initialised
//     by the load that allocates its frames and by no later one.
//   - Warm-up is architectural: Warmup executes instructions functionally
//     (registers, memory, TLBs, L1/L2, predictor warm; zero cycles, zero
//     events, no speculation), so its end state is identical under every
//     protection scheme. One warm snapshot therefore forks all per-scheme
//     runs of a figure row, and a forked run reproduces a cold
//     (warm-up-in-place) run bit-exactly.
//   - Checkpoints require a quiesced machine (no pending events, empty
//     pipelines, drained stores, idle MSHRs); Quiesced() enforces it and
//     names the offending structure, and Drain reaches it mid-run. The
//     restore target must be no further along in simulated time than the
//     snapshot (its clock is advanced to match); mismatched geometry,
//     core counts or RunOn scheduling are rejected at restore.
//   - Mid-run checkpoints perturb timing deterministically: draining
//     costs simulated cycles, so the checkpoint cadence is part of a
//     run's identity, and a run restored from any mid-run snapshot
//     finishes bit-identically to the run that produced it.
//   - The machine payload layout is versioned by machineFormat, now 10:
//     every table writes a count and then its valid (or non-zero) entries
//     prefixed by their ascending index, so an image is proportional to
//     the state the machine holds (about 0.2 MB for a busy 4-core
//     machine), not to its geometry (1.47 MB under format 2, which wrote
//     every way of every set); format 4 saves only the counters something
//     reads, format 5 nothing that mirrors a filter cache, format 6
//     nothing that mirrors an L1, format 7 no statistic, LRU stamp or
//     past busy-until cycle inside a structure, format 8 no record of
//     which filter cache owns a line, format 9 no warm-up count, and
//     format 10 one section per structure or counter array. CheckFormat
//     reads only the "format" section; RestoreSnapshot refuses any other
//     format before it touches the machine, and figures treats such an
//     image as a miss: the warm-up is rebuilt, a mid-run resume warns and
//     starts cold.
//   - Each owner lists its structures once, as checkpoint rows (section
//     name and walk): the system its "format", "machine" and "phys" rows,
//     memsys.Hierarchy and memsys.Port theirs, cpu.Core its own.
//     Checkpoint and RestoreSnapshot run one loop over them. A restore
//     reads every section of the image whole: a section no row reads, a
//     missing section of a structure that cannot start empty, and a walk
//     that leaves payload bytes unread all fail it. A filter structure's
//     missing section leaves it empty, so a warm image of an unprotected
//     machine restores into a protected one.
//   - A machine has an end of life. Release hands its tables — cache-line
//     arrays, physical frames, predictor tables, each core's instruction
//     window and rename snapshots, the event queue's bucket slab — back
//     to internal/recycle, which the next machine's constructors borrow
//     from (zeroed, so a recycled table and a fresh one are the same
//     value), and drops every pending event. The owner of a machine
//     releases it once its results are collected, finished or not; a
//     RunResult and a Snapshot share nothing with the machine. A machine
//     never released is simply collected. Stepping one after Release
//     panics, as does any other use at its first table access; releasing
//     twice is a no-op.
package sim
