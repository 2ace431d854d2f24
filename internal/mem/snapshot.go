package mem

import (
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/event"
)

// Save serialises every touched, non-zero frame in ascending frame order,
// so equal memory contents always produce the same bytes. All-zero frames
// are elided: an absent frame reads as zeroes, so dropping them preserves
// semantics exactly.
func (p *Physical) Save(w *checkpoint.Writer) {
	fns := make([]uint64, 0, len(p.frames))
	for fn, f := range p.frames {
		if *f != [PageBytes]byte{} {
			fns = append(fns, fn)
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i] < fns[j] })
	w.Grow(8 + len(fns)*(16+PageBytes))
	w.U64(uint64(len(fns)))
	for _, fn := range fns {
		w.U64(fn)
		w.Bytes(p.frames[fn][:])
	}
}

// Restore replaces the physical memory's contents with the saved image.
// The frames held before go back to the recycler the new ones come from.
func (p *Physical) Restore(r *checkpoint.Reader) error {
	p.dropFrames()
	n := r.U64()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		fn := r.U64()
		b := r.Bytes()
		if r.Err() != nil {
			break
		}
		if len(b) != PageBytes {
			return r.Failf("frame %#x has %d bytes, want %d", fn, len(b), PageBytes)
		}
		f := borrowFrame()
		copy(f[:], b)
		p.frames[fn] = f
	}
	return r.Err()
}

// Save serialises the DRAM timing state (open rows, bank and bus
// occupancy) and statistics.
func (d *DRAM) Save(w *checkpoint.Writer) {
	w.U32(uint32(d.cfg.Banks))
	for b := 0; b < d.cfg.Banks; b++ {
		w.U64(d.openRow[b])
		w.Bool(d.hasRow[b])
		w.U64(uint64(d.bankFree[b]))
	}
	w.U64(uint64(d.busFree))
	w.U64(d.Accesses)
	w.U64(d.RowHits)
}

// SaveSize is the number of bytes Save writes.
func (d *DRAM) SaveSize() int { return 4 + d.cfg.Banks*(8+1+8) + 3*8 }

// Restore loads DRAM state saved by Save into a model with the same bank
// count.
func (d *DRAM) Restore(r *checkpoint.Reader) error {
	banks := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if banks != d.cfg.Banks {
		return r.Failf("dram has %d banks, snapshot %d", d.cfg.Banks, banks)
	}
	for b := 0; b < d.cfg.Banks; b++ {
		d.openRow[b] = r.U64()
		d.hasRow[b] = r.Bool()
		d.bankFree[b] = event.Cycle(r.U64())
	}
	d.busFree = event.Cycle(r.U64())
	d.Accesses = r.U64()
	d.RowHits = r.U64()
	return r.Err()
}
