package mem

import "repro/internal/checkpoint"

// Checkpoint walks every touched, non-zero frame in ascending frame order
// — the count, then per frame its number, its length and its bytes — so
// equal memory contents always produce the same bytes. All-zero frames
// are elided: an absent frame reads as zeroes, so dropping them preserves
// semantics exactly. A load replaces the memory's contents; the frames
// held before go back to the recycler the new ones come from.
func (p *Physical) Checkpoint(s *checkpoint.State) {
	if s.Loading() {
		p.dropFrames()
	}
	checkpoint.Map(s, &p.frames, checkpoint.Count64, nonZero, func(fn uint64, f *[PageBytes]byte) (uint64, *[PageBytes]byte) {
		size := uint64(PageBytes)
		s.U64(&fn)
		if s.U64(&size); s.Loading() {
			if size != PageBytes {
				s.Failf("frame %#x has %d bytes, want %d", fn, size, PageBytes)
			}
			f = borrowFrame()
		}
		checkpoint.Raw(s, f[:])
		return fn, f
	})
}

func nonZero(f *[PageBytes]byte) bool { return *f != [PageBytes]byte{} }

// Checkpoint walks the DRAM timing state: open rows, and bank and bus
// occupancy as the cycles still to wait (checkpoint.Until). A load needs
// a model with the same bank count, on a scheduler at the snapshot's
// cycle.
func (d *DRAM) Checkpoint(s *checkpoint.State) {
	banks := uint32(d.cfg.Banks)
	if s.U32(&banks); s.Loading() && int(banks) != d.cfg.Banks {
		s.Failf("dram has %d banks, snapshot %d", d.cfg.Banks, banks)
	}
	now := d.sched.Now()
	for b := range d.cfg.Banks {
		s.U64(&d.openRow[b])
		s.Bool(&d.hasRow[b])
		checkpoint.Until(s, &d.bankFree[b], now)
	}
	checkpoint.Until(s, &d.busFree, now)
}
