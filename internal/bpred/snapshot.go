package bpred

import "repro/internal/checkpoint"

// Save serialises every predictor table, the speculative history state and
// the statistics.
func (p *Predictor) Save(w *checkpoint.Writer) {
	// Five u32 geometry words and rasTop, the global history and five
	// counters, then the tables.
	w.Grow(6*4 + 6*8 + 8*len(p.localHist) + len(p.localCtr) + len(p.globalCtr) +
		len(p.chooserCtr) + 16*len(p.btbTags) + 8*len(p.ras))
	w.U32(uint32(p.cfg.LocalEntries))
	w.U32(uint32(p.cfg.GlobalEntries))
	w.U32(uint32(p.cfg.ChooserEntries))
	w.U32(uint32(p.cfg.BTBEntries))
	w.U32(uint32(p.cfg.RASEntries))
	for _, h := range p.localHist {
		w.U64(h)
	}
	for _, c := range p.localCtr {
		w.U8(uint8(c))
	}
	for _, c := range p.globalCtr {
		w.U8(uint8(c))
	}
	for _, c := range p.chooserCtr {
		w.U8(uint8(c))
	}
	w.U64(p.globalHist)
	for i := range p.btbTags {
		w.U64(p.btbTags[i])
		w.U64(p.btbTargets[i])
	}
	for _, v := range p.ras {
		w.U64(v)
	}
	w.U32(uint32(p.rasTop))
	w.U64(p.Lookups)
	w.U64(p.BTBHits)
	w.U64(p.DirMispred)
	w.U64(p.TgtMispred)
	w.U64(p.RASOverflow)
}

// Restore loads state saved by Save into a predictor of identical
// configuration.
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
	for i := range p.localHist {
		p.localHist[i] = r.U64()
	}
	for i := range p.localCtr {
		p.localCtr[i] = counter(r.U8())
	}
	for i := range p.globalCtr {
		p.globalCtr[i] = counter(r.U8())
	}
	for i := range p.chooserCtr {
		p.chooserCtr[i] = counter(r.U8())
	}
	p.globalHist = r.U64()
	for i := range p.btbTags {
		p.btbTags[i] = r.U64()
		p.btbTargets[i] = r.U64()
	}
	for i := range p.ras {
		p.ras[i] = r.U64()
	}
	p.rasTop = int(r.U32())
	p.Lookups = r.U64()
	p.BTBHits = r.U64()
	p.DirMispred = r.U64()
	p.TgtMispred = r.U64()
	p.RASOverflow = r.U64()
	return r.Err()
}
