package cache

import "repro/internal/checkpoint"

// Checkpoint walks the array's geometry and every valid line prefixed by
// its way index (set*assoc + way, ascending): per line both tags, state,
// committed bit, fill level and recency rank (see rank). An invalid way
// carries no bytes: nothing but its State is ever read (Lookup, Peek,
// LookupVirtual and the victim choosers all test State first and a fill
// overwrites the whole Line), so arrays that agree on their valid lines
// and on each set's recency order are the same machine state, and encode
// identically. A load needs an array of identical geometry; it clears
// every way, then places the saved lines, each with LRU stamp rank+1 under
// a tick of the associativity, and rejects a count above the capacity, an
// index out of range or not strictly ascending, a line whose state is
// Invalid or not a State at all, and a rank not below the associativity.
func (a *Array) Checkpoint(s *checkpoint.State) {
	sets, assoc := uint32(a.Sets()), uint32(a.assoc)
	s.U32(&sets)
	s.U32(&assoc)
	if s.Loading() && (int(sets) != a.Sets() || int(assoc) != a.assoc) {
		s.Failf("cache %q geometry %dx%d, snapshot %dx%d", a.name, a.Sets(), a.assoc, sets, assoc)
	}
	if s.Loading() {
		clear(a.lines)
		a.tick = uint64(a.assoc)
	}
	lines := a.lines
	t := s.Table(len(lines), a.CountValid)
	for i := t.First(); t.More(i); i = t.Next(i) {
		l := &lines[i]
		if !t.Holds(i, l.State.Valid()) {
			continue
		}
		s.U64(&l.Tag)
		s.U64(&l.VTag)
		s.U8((*uint8)(&l.State))
		s.Bool(&l.Committed)
		s.U8(&l.FillLevel)
		rank := a.rank(i) // loading: overwritten by the saved rank
		if s.U32(&rank); !s.Loading() {
			continue
		}
		if !l.State.Valid() || l.State > SharedExclusivePending || rank >= assoc {
			s.Failf("cache %q way %d saved in state %d with recency rank %d", a.name, i, l.State, rank)
		}
		l.lru = uint64(rank) + 1
	}
	t.End()
}

// rank counts the valid ways of way i's set used less recently than it:
// stamps are only compared within a set, so the rank keeps every victim
// choice and the stamp's history stays out of the image.
func (a *Array) rank(i int) uint32 {
	n, set, lru := uint32(0), a.lines[i-i%a.assoc:][:a.assoc], a.lines[i].lru
	for j := range set {
		if set[j].State.Valid() && set[j].lru < lru {
			n++
		}
	}
	return n
}
