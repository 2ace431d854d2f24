package cache

import "repro/internal/checkpoint"

// Save serialises the array's complete line state (every way of every set,
// valid or not, including replacement state) and the LRU tick.
func (a *Array) Save(w *checkpoint.Writer) {
	w.Grow(a.SaveSize())
	w.U32(uint32(len(a.sets)))
	w.U32(uint32(a.assoc))
	w.U64(a.tick)
	for s := range a.sets {
		for i := range a.sets[s] {
			l := &a.sets[s][i]
			w.U64(l.Tag)
			w.U64(l.VTag)
			w.U8(uint8(l.State))
			w.Bool(l.Committed)
			w.U8(l.FillLevel)
			w.U64(l.lru)
		}
	}
}

// SaveSize is the number of bytes Save writes: a 16-byte header and 27
// bytes per line.
func (a *Array) SaveSize() int { return 16 + len(a.sets)*a.assoc*27 }

// Restore loads state saved by Save into an array of identical geometry.
func (a *Array) Restore(r *checkpoint.Reader) error {
	sets := int(r.U32())
	assoc := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if sets != len(a.sets) || assoc != a.assoc {
		return r.Failf("cache %q geometry %dx%d, snapshot %dx%d",
			a.name, len(a.sets), a.assoc, sets, assoc)
	}
	a.tick = r.U64()
	for s := range a.sets {
		for i := range a.sets[s] {
			l := &a.sets[s][i]
			l.Tag = r.U64()
			l.VTag = r.U64()
			l.State = State(r.U8())
			l.Committed = r.Bool()
			l.FillLevel = r.U8()
			l.lru = r.U64()
		}
	}
	return r.Err()
}

// Save serialises the MSHR file's statistics. Live registers are
// intentionally not serialised: checkpoints are only taken on a quiesced
// machine, where every file is empty — callers enforce that with InUse.
func (f *MSHRFile) Save(w *checkpoint.Writer) {
	w.U64(f.Allocs)
	w.U64(f.Coalesced)
	w.U64(f.FullStall)
}

// Restore loads MSHR statistics saved by Save.
func (f *MSHRFile) Restore(r *checkpoint.Reader) error {
	f.Allocs = r.U64()
	f.Coalesced = r.U64()
	f.FullStall = r.U64()
	return r.Err()
}
