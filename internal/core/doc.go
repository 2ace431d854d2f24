// Package core implements the paper's primary contribution: the
// speculative filter cache (MuonTrap §4). A filter cache is a small,
// 1-cycle L0 placed between the core and the L1 that captures *all*
// speculative memory state:
//
//   - lines filled by speculative instructions carry a cleared "committed"
//     bit and are never written into non-speculative caches (§4.2);
//   - when an instruction using a line commits, the line is written
//     through to the L1 (and the inclusive L2) and marked committed;
//   - the cache is virtually indexed and tagged from the CPU side and
//     physically tagged from the memory side, so it needs no translation
//     on access but can still be snooped (§4.4);
//   - validity lives in registers beside the SRAM, so the whole cache is
//     flash-invalidated in a single cycle on a protection-domain switch
//     (§4.3) — this is what makes clearing cheap enough to do on every
//     context switch, syscall and sandbox entry;
//   - coherence-wise a filter cache only ever holds lines in Shared; the
//     SE pseudo-state records that an unprotected system would have held
//     the line Exclusive so the L1 can launch an asynchronous upgrade when
//     the line commits (§4.5).
//
// Key types:
//
//   - FilterCache: the structure itself — a cache.Array with dual tags and
//     committed bits, plus its MSHR file. It keeps no statistics: the
//     memsys port that owns it counts its hits, misses and evictions.
//   - FilterConfig: geometry (the paper's tuned configuration is 2KiB,
//     4-way).
//
// Invariants:
//
//   - Physical addressing on fill resolves virtual aliases: only one copy
//     of each physical line ever exists (§4.4).
//   - A filter cache holds only speculative state; at any quiesced point
//     (domain switch, checkpoint) its contents are discardable, which is
//     why warm-up snapshots carry no filter state and restore into any
//     protection scheme.
//
// The surrounding coherence machinery (NACKing speculative downgrades,
// broadcast filter invalidation on exclusive upgrades, commit-time
// prefetch notification) lives in internal/memsys; this package owns the
// structure itself plus the filter TLB policy.
package core
