package core

import "repro/internal/checkpoint"

// Checkpoint walks the filter cache's line array and hit/miss
// statistics; a load needs a filter cache of identical geometry.
// Checkpoints are taken on quiesced machines, so the MSHR file holds
// nothing to save.
func (f *FilterCache) Checkpoint(s *checkpoint.State) {
	f.arr.Checkpoint(s)
	s.U64(&f.Hits)
	s.U64(&f.Misses)
	s.U64(&f.EvictedUncommitted3)
}
