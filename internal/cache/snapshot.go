package cache

import "repro/internal/checkpoint"

// arraySaveHeader and lineSaveBytes size Save's encoding: geometry (two
// u32), the LRU tick, the valid-line count; then per valid line its way
// index, both tags, state, committed bit, fill level and LRU stamp.
const (
	arraySaveHeader = 4 + 4 + 8 + 4
	lineSaveBytes   = 4 + 8 + 8 + 1 + 1 + 1 + 8
)

// Save serialises the array's geometry, the LRU tick and every valid line
// prefixed by its way index (set*assoc + way, ascending). An invalid way
// carries no bytes: nothing but its State is ever read (Lookup, Peek,
// LookupVirtual and the victim choosers all test State first and a fill
// overwrites the whole Line), so arrays that agree on their valid lines
// are the same machine state, and encode identically. The owner of the
// section reserves SaveSize bytes beforehand.
func (a *Array) Save(w *checkpoint.Writer) {
	w.U32(uint32(a.Sets()))
	w.U32(uint32(a.assoc))
	w.U64(a.tick)
	t := w.Table()
	for i := range a.lines {
		l := &a.lines[i]
		if !l.State.Valid() {
			continue
		}
		t.Entry(i)
		w.U64(l.Tag)
		w.U64(l.VTag)
		w.U8(uint8(l.State))
		w.Bool(l.Committed)
		w.U8(l.FillLevel)
		w.U64(l.lru)
	}
	t.End()
}

// SaveSize is the number of bytes Save writes.
func (a *Array) SaveSize() int { return arraySaveHeader + a.CountValid()*lineSaveBytes }

// Restore loads state saved by Save into an array of identical geometry:
// every way is cleared, then the saved lines are placed. A count above
// the capacity, an index out of range or not strictly ascending, and a
// line whose state is Invalid or not a State at all are rejected.
func (a *Array) Restore(r *checkpoint.Reader) error {
	sets := int(r.U32())
	assoc := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if sets != a.Sets() || assoc != a.assoc {
		return r.Failf("cache %q geometry %dx%d, snapshot %dx%d",
			a.name, a.Sets(), a.assoc, sets, assoc)
	}
	a.tick = r.U64()
	clear(a.lines)
	t := r.Table(a.Lines())
	for idx, ok := t.Next(); ok; idx, ok = t.Next() {
		l := Line{
			Tag:       r.U64(),
			VTag:      r.U64(),
			State:     State(r.U8()),
			Committed: r.Bool(),
			FillLevel: r.U8(),
			lru:       r.U64(),
		}
		if r.Err() != nil {
			break
		}
		if !l.State.Valid() || l.State > SharedExclusivePending {
			return r.Failf("cache %q way %d saved in state %d", a.name, idx, l.State)
		}
		a.lines[idx] = l
	}
	return r.Err()
}
