package tlb

import "repro/internal/checkpoint"

// entrySaveBytes is one saved translation: its slot index, VPN, PFN, ASID
// and LRU stamp.
const entrySaveBytes = 4 + 8 + 8 + 8 + 8

// Save serialises the TLB's capacity, replacement tick and statistics,
// then every valid entry prefixed by its slot index (ascending). An
// invalid slot carries no bytes: Lookup, Insert, Remove and the flushes
// test the valid bit before they read anything else of a slot.
func (t *TLB) Save(w *checkpoint.Writer) {
	w.U32(uint32(len(t.entries)))
	w.U64(t.tick)
	w.U64(t.Lookups)
	w.U64(t.Hits)
	tbl := w.Table()
	for i := range t.entries {
		if !t.valid[i] {
			continue
		}
		e := &t.entries[i]
		tbl.Entry(i)
		w.U64(e.VPN)
		w.U64(e.PFN)
		w.U64(e.ASID)
		w.U64(e.lru)
	}
	tbl.End()
}

// SaveSize is the number of bytes Save writes.
func (t *TLB) SaveSize() int { return 4 + 3*8 + 4 + t.CountValid()*entrySaveBytes }

// Restore loads state saved by Save into a TLB of identical capacity:
// every slot is invalidated, then the saved entries are placed. A count
// above the capacity and an index out of range or not strictly ascending
// are rejected.
func (t *TLB) Restore(r *checkpoint.Reader) error {
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(t.entries) {
		return r.Failf("tlb %q has %d entries, snapshot %d", t.name, len(t.entries), n)
	}
	t.tick = r.U64()
	t.Lookups = r.U64()
	t.Hits = r.U64()
	clear(t.entries)
	clear(t.valid)
	tbl := r.Table(len(t.entries))
	for i, ok := tbl.Next(); ok; i, ok = tbl.Next() {
		e := Entry{VPN: r.U64(), PFN: r.U64(), ASID: r.U64(), lru: r.U64()}
		if r.Err() != nil {
			break
		}
		t.entries[i] = e
		t.valid[i] = true
	}
	return r.Err()
}
