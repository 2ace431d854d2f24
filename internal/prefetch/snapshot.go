package prefetch

import "repro/internal/checkpoint"

// Checkpoint walks the table size, then every valid stride entry prefixed
// by its slot index (ascending): its PC, last address, stride and
// confidence. An invalid slot carries no bytes: Observe overwrites the
// whole entry when it finds one. A load needs a prefetcher of identical
// table size; it clears the table, then places the saved entries, and
// rejects a count above the table size and an index out of range or not
// strictly ascending.
func (p *Prefetcher) Checkpoint(s *checkpoint.State) {
	n := uint32(len(p.table))
	if s.U32(&n); s.Loading() && int(n) != len(p.table) {
		s.Failf("prefetch table has %d entries, snapshot %d", len(p.table), n)
	}
	if s.Loading() {
		p.Reset()
	}
	t := s.Table(len(p.table), p.CountValid)
	for i := t.First(); t.More(i); i = t.Next(i) {
		e := &p.table[i]
		if !t.Holds(i, e.valid) {
			continue
		}
		stride, conf := uint64(e.stride), uint32(e.conf)
		s.U64(&e.pc)
		s.U64((*uint64)(&e.lastAddr))
		s.U64(&stride)
		s.U32(&conf)
		e.stride, e.conf, e.valid = int64(stride), int(conf), true
	}
	t.End()
}

// CountValid reports the trained slots.
func (p *Prefetcher) CountValid() int {
	n := 0
	for i := range p.table {
		if p.table[i].valid {
			n++
		}
	}
	return n
}
