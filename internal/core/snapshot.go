package core

import "repro/internal/checkpoint"

// Save serialises the filter cache's line array and hit/flush statistics.
// Checkpoints are taken on quiesced machines, so the MSHR file holds
// nothing to save.
func (f *FilterCache) Save(w *checkpoint.Writer) {
	f.arr.Save(w)
	w.U64(f.Hits)
	w.U64(f.Misses)
	w.U64(f.Flushes)
	w.U64(f.LinesFlushed)
	w.U64(f.EvictedUncommitted3)
}

// SaveSize is the number of bytes Save writes.
func (f *FilterCache) SaveSize() int { return f.arr.SaveSize() + 5*8 }

// Restore loads state saved by Save into a filter cache of identical
// geometry.
func (f *FilterCache) Restore(r *checkpoint.Reader) error {
	if err := f.arr.Restore(r); err != nil {
		return err
	}
	f.Hits = r.U64()
	f.Misses = r.U64()
	f.Flushes = r.U64()
	f.LinesFlushed = r.U64()
	f.EvictedUncommitted3 = r.U64()
	return r.Err()
}
