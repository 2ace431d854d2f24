package bpred

// Warm-up training: the checkpoint fast-forward executes instructions
// architecturally (no speculation), so the predictor can be trained with
// the resolved outcome directly — the fetch-time history snapshot that
// Update reconstructs from a Prediction is simply the current history.
// None of these bump the mispredict count: warm-up precedes
// the measured region.

// WarmBranch trains the tournament tables and (when taken) the BTB with an
// architecturally executed conditional branch.
func (p *Predictor) WarmBranch(pc uint64, taken bool, target uint64) {
	li := p.localIdx(pc)
	hist := p.localHist[li]
	lci := p.localCtrIdx(hist)
	gi := p.globalIdx(pc)
	localWas := p.localCtr[lci].taken()
	globalWas := p.globalCtr[gi].taken()
	ci := p.chooserIdx()
	if localWas != globalWas {
		p.chooserCtr[ci] = p.chooserCtr[ci].update(globalWas == taken)
	}
	p.localCtr[lci] = p.localCtr[lci].update(taken)
	p.globalCtr[gi] = p.globalCtr[gi].update(taken)
	p.localHist[li] = (hist<<1 | b2u(taken)) & mask(p.cfg.LocalHistBits)
	p.globalHist = (p.globalHist<<1 | b2u(taken)) & mask(p.cfg.GlobalHistBits)
	if taken {
		p.warmBTB(pc, target)
	}
}

// WarmJump trains the BTB with an executed indirect jump.
func (p *Predictor) WarmJump(pc, target uint64) { p.warmBTB(pc, target) }

// WarmCall trains the BTB with a call's target and pushes its return
// address onto the RAS.
func (p *Predictor) WarmCall(pc, retAddr, target uint64) {
	p.warmBTB(pc, target)
	p.rasPush(retAddr)
}

// WarmRet pops the RAS and trains the BTB with the executed return target.
func (p *Predictor) WarmRet(pc, target uint64) {
	p.rasPop()
	p.warmBTB(pc, target)
}

func (p *Predictor) warmBTB(pc, target uint64) {
	i := int((pc >> 2) % uint64(p.cfg.BTBEntries))
	p.btbTags[i] = pc
	p.btbTargets[i] = target
}
