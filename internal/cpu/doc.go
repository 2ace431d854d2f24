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
//     ROB, issue queue (ready list + waiter chains), load/store queues,
//     post-commit store buffer, fetch engine and statistics.
//     Tick advances it one cycle; the owner (internal/sim) advances the
//     shared event scheduler.
//   - dynInst: one in-flight dynamic instruction, pool-allocated.
//   - Defense: the pipeline-level defense models compared against MuonTrap
//     (InvisiSpec and STT, each in Spectre and Future variants). MuonTrap
//     itself needs almost nothing from the core beyond commit-time hooks
//     and NACK retries: its protection lives in the memory system.
//
// Invariants:
//
//   - dynInst seq-validation: dynInsts are recycled through a fixed pool,
//     so every reference that can outlive an instruction — rename entries,
//     producer links, scheduled events, MSHR waiters — carries the
//     instruction's seq and validates it before use. A recycled slot has a
//     different seq (or seq 0 while free); a mismatch means the producer
//     committed (its value is architectural) or the event is stale and
//     must be dropped.
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
//   - Commit is in order; stores update functional memory the moment they
//     leave the store buffer, preserving per-core visibility order.
//   - Quiesced() (empty pipeline, drained stores, no in-flight fetch) is
//     the only state Save/Restore handles: the snapshot format
//     deliberately has no encoding for in-flight speculation.
package cpu
