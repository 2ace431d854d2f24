package prefetch

import (
	"repro/internal/checkpoint"
	"repro/internal/mem"
)

// entrySaveBytes is one saved stride entry: its slot index, PC, last
// address, stride and confidence.
const entrySaveBytes = 4 + 8 + 8 + 8 + 4

// Save serialises the table size, then every valid stride
// entry prefixed by its slot index (ascending). An invalid slot carries
// no bytes: Observe overwrites the whole entry when it finds one.
func (p *Prefetcher) Save(w *checkpoint.Writer) {
	w.U32(uint32(len(p.table)))
	t := w.Table()
	for i := range p.table {
		e := &p.table[i]
		if !e.valid {
			continue
		}
		t.Entry(i)
		w.U64(e.pc)
		w.U64(uint64(e.lastAddr))
		w.I64(e.stride)
		w.U32(uint32(e.conf))
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

// SaveSize is the number of bytes Save writes.
func (p *Prefetcher) SaveSize() int { return 4 + 4 + p.CountValid()*entrySaveBytes }

// Restore loads state saved by Save into a prefetcher of identical table
// size: the table is cleared, then the saved entries are placed. A count
// above the table size and an index out of range or not strictly
// ascending are rejected.
func (p *Prefetcher) Restore(r *checkpoint.Reader) error {
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(p.table) {
		return r.Failf("prefetch table has %d entries, snapshot %d", len(p.table), n)
	}
	p.Reset()
	t := r.Table(len(p.table))
	for i, ok := t.Next(); ok; i, ok = t.Next() {
		e := entry{
			pc:       r.U64(),
			lastAddr: mem.Addr(r.U64()),
			stride:   r.I64(),
			conf:     int(r.U32()),
			valid:    true,
		}
		if r.Err() != nil {
			break
		}
		p.table[i] = e
	}
	return r.Err()
}
