package bpred

import "repro/internal/checkpoint"

// Checkpoint walks the five geometry words, the speculative history state
// and mispredict count, the 2-bit counter tables and the RAS in full (they
// are small and densely trained), and the local-history table and the BTB
// sparsely: each non-zero entry prefixed by its ascending index — a
// history its shift register, a BTB entry its tag and target. A zero entry
// is what New and FlushBTB leave behind, so it carries no bytes. A load
// needs a predictor of identical configuration; it clears the sparse
// tables, then fills them, and rejects a count above the table size, an
// index out of range or not strictly ascending, and an all-zero entry
// (which a save never writes).
func (p *Predictor) Checkpoint(s *checkpoint.State) {
	geom := [5]uint32{uint32(p.cfg.LocalEntries), uint32(p.cfg.GlobalEntries),
		uint32(p.cfg.ChooserEntries), uint32(p.cfg.BTBEntries), uint32(p.cfg.RASEntries)}
	for i := range geom {
		s.U32(&geom[i])
	}
	if s.Loading() && (int(geom[0]) != p.cfg.LocalEntries || int(geom[1]) != p.cfg.GlobalEntries ||
		int(geom[2]) != p.cfg.ChooserEntries || int(geom[3]) != p.cfg.BTBEntries || int(geom[4]) != p.cfg.RASEntries) {
		s.Failf("predictor geometry mismatch: have %+v, snapshot (%d,%d,%d,%d,%d)",
			p.cfg, geom[0], geom[1], geom[2], geom[3], geom[4])
	}
	s.U64(&p.globalHist)
	top := uint32(p.rasTop)
	if s.U32(&top); s.Loading() && int(top) >= len(p.ras) {
		s.Failf("RAS top %d in a stack of %d", top, len(p.ras))
	}
	p.rasTop = int(top)
	s.U64(&p.DirMispred)
	checkpoint.Raw(s, p.localCtr)
	checkpoint.Raw(s, p.globalCtr)
	checkpoint.Raw(s, p.chooserCtr)
	for i := range p.ras {
		s.U64(&p.ras[i])
	}

	if s.Loading() {
		clear(p.localHist)
	}
	local := p.localHist
	hist := s.Table(len(local), p.heldHistories)
	for i := hist.First(); hist.More(i); i = hist.Next(i) {
		if !hist.Holds(i, local[i] != 0) {
			continue
		}
		if s.U64(&local[i]); local[i] == 0 {
			s.Failf("local history %d saved empty", i)
		}
	}
	hist.End()

	if s.Loading() {
		p.FlushBTB()
	}
	tags, targets := p.btbTags, p.btbTargets[:len(p.btbTags)]
	btb := s.Table(len(tags), p.heldBTB)
	for i := btb.First(); btb.More(i); i = btb.Next(i) {
		if !btb.Holds(i, tags[i]|targets[i] != 0) {
			continue
		}
		s.U64(&tags[i])
		if s.U64(&targets[i]); tags[i]|targets[i] == 0 {
			s.Failf("BTB entry %d saved empty", i)
		}
	}
	btb.End()
}

// Occupancy counts the entries of the two sparse tables: local histories
// and BTB entries that are not zero.
func (p *Predictor) Occupancy() (localHist, btb int) { return p.heldHistories(), p.heldBTB() }

func (p *Predictor) heldHistories() int {
	n := 0
	for _, h := range p.localHist {
		if h != 0 {
			n++
		}
	}
	return n
}

func (p *Predictor) heldBTB() int {
	n := 0
	for i, tag := range p.btbTags {
		if tag|p.btbTargets[i] != 0 {
			n++
		}
	}
	return n
}
