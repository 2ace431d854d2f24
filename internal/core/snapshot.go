package core

import "repro/internal/checkpoint"

// Checkpoint walks the filter cache's line array; a load needs a filter
// cache of identical geometry. Checkpoints are taken on quiesced machines,
// so the MSHR file holds nothing to save, and the port that owns the
// filter cache counts what it does.
func (f *FilterCache) Checkpoint(s *checkpoint.State) { f.arr.Checkpoint(s) }
