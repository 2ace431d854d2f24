package tlb

import "repro/internal/checkpoint"

// Checkpoint walks the TLB's capacity, then every valid entry prefixed by
// its slot index (ascending): its VPN, PFN, ASID and recency rank (see
// rank). An invalid slot carries no bytes: Lookup, Insert, Remove and
// FlushAll test the valid bit before they read anything else of a slot.
// A load needs a TLB of identical capacity; it invalidates every slot,
// then places the saved entries, each with LRU stamp rank+1 under a tick
// of the capacity, and rejects a count above the capacity, an index out
// of range or not strictly ascending, and a rank not below the capacity.
func (t *TLB) Checkpoint(s *checkpoint.State) {
	n := uint32(len(t.entries))
	if s.U32(&n); s.Loading() && int(n) != len(t.entries) {
		s.Failf("tlb %q has %d entries, snapshot %d", t.name, len(t.entries), n)
	}
	if s.Loading() {
		clear(t.entries)
		clear(t.valid)
		t.tick = uint64(n)
	}
	tbl := s.Table(len(t.entries), t.CountValid)
	for i := tbl.First(); tbl.More(i); i = tbl.Next(i) {
		if !tbl.Holds(i, t.valid[i]) {
			continue
		}
		e := &t.entries[i]
		s.U64(&e.VPN)
		s.U64(&e.PFN)
		s.U64(&e.ASID)
		rank := t.rank(i) // loading: overwritten by the saved rank
		if s.U32(&rank); !s.Loading() {
			continue
		}
		if rank >= n {
			s.Failf("tlb %q slot %d saved with recency rank %d", t.name, i, rank)
		}
		e.lru, t.valid[i] = uint64(rank)+1, true
	}
	tbl.End()
}

// rank counts the valid entries used less recently than entry i: stamps
// are only compared with each other, so the rank keeps every victim
// choice and the stamp's history stays out of the image.
func (t *TLB) rank(i int) uint32 {
	n, lru := uint32(0), t.entries[i].lru
	for j := range t.entries {
		if t.valid[j] && t.entries[j].lru < lru {
			n++
		}
	}
	return n
}
