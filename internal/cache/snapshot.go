package cache

import "repro/internal/checkpoint"

// Checkpoint walks the array's geometry, the LRU tick and every valid line
// prefixed by its way index (set*assoc + way, ascending): per line both
// tags, state, committed bit, fill level and LRU stamp. An invalid way
// carries no bytes: nothing but its State is ever read (Lookup, Peek,
// LookupVirtual and the victim choosers all test State first and a fill
// overwrites the whole Line), so arrays that agree on their valid lines
// are the same machine state, and encode identically. A load needs an
// array of identical geometry; it clears every way, then places the saved
// lines, and rejects a count above the capacity, an index out of range or
// not strictly ascending, and a line whose state is Invalid or not a State
// at all.
func (a *Array) Checkpoint(s *checkpoint.State) {
	sets, assoc := uint32(a.Sets()), uint32(a.assoc)
	s.U32(&sets)
	s.U32(&assoc)
	if s.Loading() && (int(sets) != a.Sets() || int(assoc) != a.assoc) {
		s.Failf("cache %q geometry %dx%d, snapshot %dx%d", a.name, a.Sets(), a.assoc, sets, assoc)
	}
	s.U64(&a.tick)
	if s.Loading() {
		clear(a.lines)
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
		s.U64(&l.lru)
		if s.Loading() && (!l.State.Valid() || l.State > SharedExclusivePending) {
			s.Failf("cache %q way %d saved in state %d", a.name, i, l.State)
		}
	}
	t.End()
}
