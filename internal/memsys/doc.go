// Package memsys implements the coherent memory hierarchy of the
// simulated machine: per-core filter caches (L0) and L1 instruction/data
// caches, a shared inclusive L2 with a snooped MESI protocol and stride
// prefetcher, split TLBs with a hardware page-table walker, and a DRAM
// backend. It implements both the unprotected baseline behaviour and
// every MuonTrap protection mechanism (paper §4), selected per-mechanism
// so the evaluation can reproduce the cumulative cost breakdowns of
// Figures 8/9.
//
// Key types:
//
//   - Hierarchy: the shared level — L2, DRAM and prefetcher. It keeps
//     no record of which private caches hold a line: each L1 and filter
//     cache is the only record of its contents. A coherence decision
//     snoops every L1D for the line's owner and sharers, and every data
//     filter cache for an owner (a Peek, which moves no replacement
//     state), back-invalidation drops the line from every L1, and the
//     §4.5 invalidation is a broadcast to every filter cache.
//   - Port: one core's window onto the memory system (its L0s, L1s and
//     TLBs plus every operation the pipeline invokes). Nothing blocks:
//     completions arrive through scheduled events, either as parked
//     callbacks or as typed Client notifications identified by
//     (pool index, seq) pairs the core validates against recycling.
//     Every pending action is a typed event (the scheduler has no
//     other kind). Everything a port parks under an event argument —
//     callbacks, MSHR-coalesced waiters, page-table walks, L1D and L1I
//     misses (retry, NACK or fill) — lives in a slots[T] registry, and
//     the slot number is the event argument; an action whose state fits
//     the two arguments carries it there instead (a commit-time reload
//     or write-through carries its line, a prefetch fill its line as
//     the hierarchy's one event). Data and instruction accesses share
//     one completion record, so no miss allocates. Quiet and Quiesced
//     are two readings of one predicate over those registries and the
//     MSHR files.
//   - PortCounter, hierCounter: the port's and the shared level's counter
//     tables, the only record of every count (the filter caches, TLBs and
//     DRAM keep none). The hot path bumps ctr[counter]; each table's
//     checkpoint row and RenderCounters walk it.
//   - Mode: the per-mechanism protection switches (filter protection,
//     coherence protection, commit-time prefetch, filter TLB, …).
//   - Client: the typed completion receiver the core implements.
//
// Invariants (enforced by CheckInvariants, used by the property tests):
//
//   - At most one core owns a line (E or M) across its L1D and data
//     filter cache, and no L1D shares it alongside an owner. Only the
//     "fcache only" design, without coherence protections, lets a filter
//     cache own a line.
//   - Inclusion: every L1 line is present in the L2; back-invalidation on
//     L2 eviction maintains it.
//   - Under CoherenceProtect, filter caches only ever hold
//     protocol-shared lines.
//   - All state-changing coherence decisions happen at completion events,
//     so concurrent transactions to a line are totally ordered by the
//     event queue's (when, seq) contract.
//
// The Warm* methods deposit an architectural access stream's footprint
// (main TLBs, L1s, L2) without events or elapsed cycles; they
// never consult Mode, which is what makes checkpoint warm-up state
// scheme-independent. Hierarchy.Rows and Port.Rows list the checkpoint
// sections, one per structure or counter array: "l2", "l2.port", "dram",
// "pf" and "hier.counters", and per port "core<i>.l1d", "core<i>.l1i",
// "core<i>.dtlb", "core<i>.itlb", the filter structures its configuration
// has ("core<i>.l0d", "core<i>.l0i", "core<i>.fdtlb"), "core<i>.asid" and
// "core<i>.port.counters". Saving and loading both require a quiesced
// machine.
package memsys
