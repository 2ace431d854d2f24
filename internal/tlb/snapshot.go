package tlb

import "repro/internal/checkpoint"

// Checkpoint walks the TLB's capacity, replacement tick and statistics,
// then every valid entry prefixed by its slot index (ascending): its VPN,
// PFN, ASID and LRU stamp. An invalid slot carries no bytes: Lookup,
// Insert, Remove and the flushes test the valid bit before they read
// anything else of a slot. A load needs a TLB of identical capacity; it
// invalidates every slot, then places the saved entries, and rejects a
// count above the capacity and an index out of range or not strictly
// ascending.
func (t *TLB) Checkpoint(s *checkpoint.State) {
	n := uint32(len(t.entries))
	if s.U32(&n); s.Loading() && int(n) != len(t.entries) {
		s.Failf("tlb %q has %d entries, snapshot %d", t.name, len(t.entries), n)
	}
	s.U64(&t.tick)
	s.U64(&t.Lookups)
	s.U64(&t.Hits)
	if s.Loading() {
		clear(t.entries)
		clear(t.valid)
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
		s.U64(&e.lru)
		t.valid[i] = true
	}
	tbl.End()
}
