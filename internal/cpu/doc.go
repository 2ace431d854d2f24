// Package cpu implements the out-of-order superscalar core of the paper's
// Table 1: 8-wide, 192-entry ROB, 64-entry issue queue, 32-entry load and
// store queues, 6 integer ALUs, 4 FP ALUs and 2 multiply/divide units,
// fed by the tournament branch predictor of internal/bpred and backed by
// the memory system of internal/memsys.
//
// The core performs real speculative functional execution: wrong-path
// instructions execute with whatever register values the rename map holds
// and issue real memory accesses, which is exactly the behaviour Spectre
// attacks exploit and MuonTrap contains. Squashes restore rename-map
// checkpoints and predictor state.
//
// Key types:
//
//   - Core: one hardware thread — architectural registers, rename map,
//     ROB, issue queue (ready list + waiter chains), load/store queues
//     (retry list + parked chains), post-commit store buffer, fetch engine
//     and counters. Tick advances it one cycle unless it is asleep; the
//     owner (internal/sim) advances the shared event scheduler, over the
//     cycles every core sleeps through in one step.
//   - dynInst: one in-flight dynamic instruction, pool-allocated. The pool
//     and the rename snapshots grow in chunks borrowed from
//     internal/recycle; Core.Release hands them back with the predictor's
//     tables, dropping whatever is in flight.
//   - Defense: the pipeline-level defense models compared against MuonTrap
//     (InvisiSpec and STT, each in Spectre and Future variants, and
//     SafeBet). NewCore resolves it once, through the defenses table, to a
//     policy — when a load is safe, and what it does until then (expose or
//     validate an invisible read, taint its dependents, stall outside the
//     committed footprint) — that each stage consults at one site. MuonTrap
//     itself needs only commit-time hooks and NACK retries from the core.
//   - Counter: the core's counter table. The hot path bumps ctr[Counter];
//     its checkpoint row and RenderCounters walk the table.
//
// Invariants:
//
//   - dynInst seq-validation: dynInsts are recycled through a fixed pool,
//     so every reference that can outlive an instruction — rename entries,
//     producer links, waiter chains, scheduled events, MSHR waiters and
//     every memory-port completion — carries the instruction's seq and
//     validates it before use. There is no exception: every access the
//     core issues completes through the memsys.Client methods or, for a
//     drain, a completion built once in NewCore, so a freed slot goes back
//     to the pool at once. A recycled slot has a different seq (or seq 0
//     while free); a mismatch means the producer committed (its value is
//     architectural) or the completion is stale — an exposure that
//     outlived its load's commit, a killed AMO's translation or drain —
//     and must be dropped.
//   - Wake, don't poll: the issue queue is not a list that is scanned. An
//     entry dispatched with an operand still in flight is parked on that
//     operand's producer (a waiter chain of (idx, seq) nodes from a
//     per-core slab) and is not looked at again until the producer
//     completes; Core.complete — the only writer of dynInst.done — latches
//     the result into the waiters and moves those that now hold every
//     operand into the ready list. At every cycle boundary: an entry is in
//     the ready list ⇔ all its operands are latched ⇔ a poll of its
//     producers would find them available; the ready list is strictly
//     ascending in seq (age order, the order issue selects in); iqCount is
//     the number of ROB entries with inIQ set; a faulted completion wakes
//     nobody. Waiter nodes obey seq-validation like every other
//     reference, so a squash repairs no chains: stale nodes drop out at
//     wake, and a chain goes back to the slab when its producer wakes or
//     is freed. CheckIssueQueue (export_test.go) recomputes the polled
//     definition from the ROB and holds the bookkeeping to it.
//   - Parked loads: a load queue entry in memWaitingOlderStores is either
//     on the retry list — memMaintenance runs it through disambiguation
//     next cycle, oldest first — or parked on exactly one instruction's
//     parked chain: the youngest older store whose address is unknown, or
//     the youngest older AMO. A store releases its loads in complete
//     (fault or no fault), an AMO when it commits, and whatever blocks a
//     load is older than it, so no squash has to. The retry list is
//     strictly ascending in seq. A store has its data before it has an
//     address (it waits for both operands in the issue queue), so a store
//     that matches a load can always forward to it. A SafeBet stall is
//     counted per cycle: the stalled load stays on the retry list.
//     CheckParkedLoads recomputes the per-cycle scan this replaced.
//   - Frontiers: every ROB entry before undonePos has executed and none
//     before branchPos is an unresolved branch. Only retire shifts them;
//     firstUndoneSeq and firstUnresolvedBranchSeq step them forward on
//     demand, so a query costs what has completed since the last one and
//     loadSafe never walks the ROB.
//   - Sleep: a Tick that changed nothing (moved stayed false: nothing
//     committed, issued, dispatched, fetched, drained, retried, exposed or
//     counted) puts the core to sleep until wakeAt — the first cycle the
//     clock alone opens a gate (commit stall, redirect penalty, front-end
//     delay of the oldest ready entry), or never. Every entry point that
//     hands the core something calls wake first. While now < wakeAt,
//     running the tick anyway changes no state at all; SleeperCheck does
//     exactly that. Cycles that bump the STTStalls or SafeBetStalls
//     counter moved.
//     Sleep is not saved: a restored core is awake.
//   - Commit is in order; stores update functional memory the moment they
//     leave the store buffer, preserving per-core visibility order.
//   - Quiesced() (empty pipeline, drained stores, no in-flight fetch) is
//     the only state the core's checkpoint rows (Rows) handle, saving or
//     loading, one section each for the registers, the fetch state, the
//     two SafeBet footprints, the predictor and the counters: the snapshot
//     format deliberately has no encoding for in-flight speculation.
package cpu
