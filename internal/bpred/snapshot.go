package bpred

import "repro/internal/checkpoint"

// Saved sizes: the fixed part is five u32 geometry words, rasTop, the
// global history and the mispredict count, plus the two sparse tables' counts;
// a local-history entry is its index and shift register, a BTB entry its
// index, tag and target.
const (
	fixedSaveBytes     = 5*4 + 4 + 8 + 8 + 4 + 4
	localHistSaveBytes = 4 + 8
	btbSaveBytes       = 4 + 8 + 8
)

// Save serialises the speculative history state and mispredict count, the
// 2-bit counter tables and the RAS in full (they are small and densely
// trained), and the local-history table and the BTB sparsely: each
// non-zero entry prefixed by its ascending index. A zero entry is what
// New and FlushBTB leave behind, so it carries no bytes.
func (p *Predictor) Save(w *checkpoint.Writer) {
	w.U32(uint32(p.cfg.LocalEntries))
	w.U32(uint32(p.cfg.GlobalEntries))
	w.U32(uint32(p.cfg.ChooserEntries))
	w.U32(uint32(p.cfg.BTBEntries))
	w.U32(uint32(p.cfg.RASEntries))
	w.U64(p.globalHist)
	w.U32(uint32(p.rasTop))
	w.U64(p.DirMispred)
	for _, tbl := range [][]counter{p.localCtr, p.globalCtr, p.chooserCtr} {
		b := w.Raw(len(tbl))
		for i, c := range tbl {
			b[i] = uint8(c)
		}
	}
	for _, v := range p.ras {
		w.U64(v)
	}

	hist := w.Table()
	for i, h := range p.localHist {
		if h != 0 {
			hist.Entry(i)
			w.U64(h)
		}
	}
	hist.End()

	btb := w.Table()
	for i, tag := range p.btbTags {
		if tag|p.btbTargets[i] != 0 {
			btb.Entry(i)
			w.U64(tag)
			w.U64(p.btbTargets[i])
		}
	}
	btb.End()
}

// Occupancy counts the entries of the two sparse tables: local histories
// and BTB entries that are not zero.
func (p *Predictor) Occupancy() (localHist, btb int) {
	for _, h := range p.localHist {
		if h != 0 {
			localHist++
		}
	}
	for i, tag := range p.btbTags {
		if tag|p.btbTargets[i] != 0 {
			btb++
		}
	}
	return localHist, btb
}

// SaveSize is the number of bytes Save writes.
func (p *Predictor) SaveSize() int {
	hist, btb := p.Occupancy()
	return fixedSaveBytes + len(p.localCtr) + len(p.globalCtr) + len(p.chooserCtr) + 8*len(p.ras) +
		hist*localHistSaveBytes + btb*btbSaveBytes
}

// Restore loads state saved by Save into a predictor of identical
// configuration. The sparse tables are cleared, then filled; a count
// above the table size, an index out of range or not strictly ascending,
// and an all-zero entry (which Save never writes) are rejected.
func (p *Predictor) Restore(r *checkpoint.Reader) error {
	le, ge := int(r.U32()), int(r.U32())
	ce, be, re := int(r.U32()), int(r.U32()), int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if le != p.cfg.LocalEntries || ge != p.cfg.GlobalEntries ||
		ce != p.cfg.ChooserEntries || be != p.cfg.BTBEntries || re != p.cfg.RASEntries {
		return r.Failf("predictor geometry mismatch: have %+v, snapshot (%d,%d,%d,%d,%d)",
			p.cfg, le, ge, ce, be, re)
	}
	p.globalHist = r.U64()
	rasTop := int(r.U32())
	if r.Err() == nil && rasTop >= len(p.ras) {
		return r.Failf("RAS top %d in a stack of %d", rasTop, len(p.ras))
	}
	p.rasTop = rasTop
	p.DirMispred = r.U64()
	for _, tbl := range [][]counter{p.localCtr, p.globalCtr, p.chooserCtr} {
		b := r.Raw(len(tbl))
		if err := r.Err(); err != nil {
			return err
		}
		for i := range tbl {
			tbl[i] = counter(b[i])
		}
	}
	for i := range p.ras {
		p.ras[i] = r.U64()
	}

	clear(p.localHist)
	hist := r.Table(len(p.localHist))
	for i, ok := hist.Next(); ok; i, ok = hist.Next() {
		if p.localHist[i] = r.U64(); p.localHist[i] == 0 && r.Err() == nil {
			return r.Failf("local history %d saved empty", i)
		}
	}

	p.FlushBTB()
	btb := r.Table(len(p.btbTags))
	for i, ok := btb.Next(); ok; i, ok = btb.Next() {
		p.btbTags[i], p.btbTargets[i] = r.U64(), r.U64()
		if p.btbTags[i]|p.btbTargets[i] == 0 && r.Err() == nil {
			return r.Failf("BTB entry %d saved empty", i)
		}
	}
	return r.Err()
}
