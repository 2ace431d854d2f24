// Package cache provides the building blocks every cache in the hierarchy
// is made of: set-associative tag arrays with MESI line states and LRU
// replacement, and a miss-status holding register (MSHR) file that
// coalesces outstanding misses to the same line.
//
// Caches here hold metadata only; data bytes live in internal/mem. The
// filter-cache specialisations (committed bits, dual virtual/physical
// tags, register valid bits) are layered on by internal/core.
//
// Key types:
//
//   - State: MESI plus SE (SharedExclusivePending), the paper's §4.5
//     pseudo-state — protocol-visible Shared that requests an asynchronous
//     upgrade to Exclusive when its line commits.
//   - Line: one line's metadata — physical tag, optional virtual tag
//     (filter caches), state, committed bit, fill level, LRU stamp.
//   - Array: a set-associative tag array with true-LRU replacement.
//     Lookup refreshes recency; Peek (used by snoops) must not, because
//     recency perturbation by a snoop would itself be a side channel.
//     The ways are one flat slice (set*assoc + way) borrowed from
//     internal/recycle — zeroed, so a recycled array is a power-on array
//     — and handed back by Release, after which any access panics.
//   - MSHRFile: outstanding-miss tracking with coalescing. Waiters are
//     parked as typed int32 slots delivered through a Waker — never
//     closures — so the coalescing path does not allocate; registers are
//     pooled.
//
// Invariants:
//
//   - At most one copy of a physical line per array (Fill updates in
//     place rather than duplicating a tag).
//   - FillPreferCommitted implements filter-cache replacement: committed
//     lines are preferred victims because they are already written through
//     to the L1 (§4.2).
//   - MSHR waiters are woken in arrival order at Complete, on the
//     completing event — ordering the hierarchy's determinism relies on.
//   - An invalid way is not state. Lookup, Peek, LookupVirtual and both
//     victim choosers test a way's State before they read anything else
//     of it, a fill overwrites the whole Line, and the invalidations
//     zero it. Array.Checkpoint therefore saves geometry, a count, and
//     only the valid lines, each prefixed by its way index (set*assoc +
//     way, ascending) and ending in its recency rank within its set: LRU
//     stamps and the tick are only compared within a set, so arrays whose
//     sets agree on lines and recency order save alike. A load clears the
//     array and places the saved lines, rejecting a count above the
//     capacity, an index out of range or not strictly ascending, a line
//     saved Invalid or in no MESI state, and a rank not below the
//     associativity. A restored array and the one it was saved from make
//     the same choices ever after and save to the same bytes.
package cache
