// Package tlb implements address translation: per-process page tables,
// the split instruction/data TLBs from the paper's Table 1 (64-entry,
// fully associative), the speculative filter TLB of §4.7, and the
// hardware page-table walker whose memory accesses are routed through the
// data-cache path so that speculative walks are themselves captured by
// the filter cache under MuonTrap.
//
// Key types:
//
//   - PageTable: one process's translations, kept as the page ranges it
//     was mapped with ({vpn, pfn, n} extents, searched newest first, so
//     the latest mapping of a page wins), plus the simulated radix-table
//     layout (WalkAddrs) the hardware walker touches — WalkDepth physical
//     reads per translation, placed so different VPN ranges hit different
//     page-table cache lines.
//   - TLB: a fully associative translation cache with LRU replacement.
//     The same structure implements the main TLBs and the smaller filter
//     TLB; the filter TLB is distinguished by being flushed on
//     protection-domain switches and receiving speculative fills, which
//     are *moved* to the main TLB when a using instruction commits.
//
// Invariants:
//
//   - Entries are tagged by (ASID, VPN): processes never alias.
//   - A duplicate Insert updates in place — a TLB never holds two entries
//     for the same page.
package tlb
