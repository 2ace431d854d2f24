// Package event provides the discrete-event scheduler that drives the
// simulator. The clock counts processor cycles; components either tick
// every cycle (the CPU pipeline) or schedule typed completion events (the
// memory system).
//
// Key types:
//
//   - Cycle: a point in simulated time.
//   - Scheduler: the clock plus the pending-event queue. AtEvent and
//     AfterEvent schedule one kind of event, a typed (Handler, op, a1, a2)
//     tuple, which never allocates in steady state; there is no closure
//     event, so whatever an event needs travels in its arguments or in a
//     registry they index. Tick runs one cycle;
//     TickOrSkipTo is Tick for a caller with nothing to do before a given
//     cycle, and skips the cycles in which no event fires either. The
//     zero value works, its buckets growing by append; NewScheduler
//     borrows one slab from internal/recycle that backs the first 16
//     items of every bucket, and Release hands it back and drops every
//     pending event.
//   - Handler: the typed-event receiver. The (op, a1, a2) tuple is opaque
//     to the scheduler; receivers use op to select the action and the args
//     to identify the target (typically a pool index plus a generation or
//     sequence number validated at fire time).
//
// Invariants:
//
//   - The (when, seq) event-ordering contract: events fire in strictly
//     increasing (when, seq) order, where seq is the global scheduling
//     order. Two events due the same cycle fire in the order they were
//     scheduled. This total order is load-bearing for every figure in the
//     evaluation — whole-system determinism (and therefore the golden
//     tests, the run memoization and the snapshot fast-forward) depends on
//     it.
//   - Scheduling at or before the current cycle never loses the event: it
//     fires on the next Tick/RunDue before the clock advances further.
//   - The clock never passes an event. Tick moves it one cycle;
//     AdvanceTo and TickOrSkipTo move it further only up to the next
//     pending event, which nextEventTime finds in O(1): the heap's top,
//     the overdue list's head, and the first set bit — rotated to start at
//     the current cycle's slot — of the word that records which ring
//     buckets are occupied.
//   - Allocation-free steady state: events are stored by value (no
//     interface boxing, no captured closure), near-future events live in a ring of per-cycle
//     buckets that reuse their backing arrays (a borrowed slab, until a
//     bucket outgrows its share), and far-future (DRAM-class) events go
//     to a hand-rolled 4-ary min-heap.
package event
