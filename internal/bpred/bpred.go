package bpred

import "repro/internal/recycle"

// Config sizes the predictor.
type Config struct {
	LocalEntries   int // local history table + local counter table entries
	GlobalEntries  int // global predictor counters
	ChooserEntries int
	BTBEntries     int
	RASEntries     int
	LocalHistBits  int
	GlobalHistBits int
}

// DefaultConfig matches Table 1 of the paper.
func DefaultConfig() Config {
	return Config{
		LocalEntries:   2048,
		GlobalEntries:  8192,
		ChooserEntries: 2048,
		BTBEntries:     4096,
		RASEntries:     16,
		LocalHistBits:  11,
		GlobalHistBits: 13,
	}
}

type counter uint8 // 2-bit saturating counter, 0..3; taken when >= 2

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Predictor is the tournament direction predictor plus BTB and RAS.
type Predictor struct {
	cfg Config

	localHist  []uint64  // per-PC history shift registers
	localCtr   []counter // indexed by local history
	globalCtr  []counter // indexed by global history
	chooserCtr []counter // indexed by global history; taken => use global
	globalHist uint64

	btbTags    []uint64
	btbTargets []uint64

	ras    []uint64
	rasTop int

	// DirMispred counts conditional branches whose direction was
	// mispredicted.
	DirMispred uint64
}

// The predictor's tables are borrowed from these and handed back by
// Release.
var (
	wordPool    recycle.Pool[uint64]
	counterPool recycle.Pool[counter]
)

// New builds a predictor.
func New(cfg Config) *Predictor {
	return &Predictor{
		cfg:        cfg,
		localHist:  wordPool.Get(cfg.LocalEntries),
		localCtr:   counterPool.Get(cfg.LocalEntries),
		globalCtr:  counterPool.Get(cfg.GlobalEntries),
		chooserCtr: counterPool.Get(cfg.ChooserEntries),
		btbTags:    wordPool.Get(cfg.BTBEntries),
		btbTargets: wordPool.Get(cfg.BTBEntries),
		ras:        wordPool.Get(cfg.RASEntries),
	}
}

// Release ends the predictor's life: its tables go back to be borrowed by
// the next predictor of the same geometry. Any later prediction or update
// panics (the tables are gone); a second Release does nothing.
func (p *Predictor) Release() {
	for _, t := range []*[]uint64{&p.localHist, &p.btbTags, &p.btbTargets, &p.ras} {
		wordPool.Put(*t)
		*t = nil
	}
	for _, t := range []*[]counter{&p.localCtr, &p.globalCtr, &p.chooserCtr} {
		counterPool.Put(*t)
		*t = nil
	}
}

func (p *Predictor) localIdx(pc uint64) int {
	return int((pc >> 2) % uint64(p.cfg.LocalEntries))
}

func (p *Predictor) localCtrIdx(hist uint64) int {
	return int(hist & uint64(p.cfg.LocalEntries-1))
}

func (p *Predictor) globalIdx(pc uint64) int {
	return int((p.globalHist ^ (pc >> 2)) % uint64(p.cfg.GlobalEntries))
}

func (p *Predictor) chooserIdx() int {
	return int(p.globalHist % uint64(p.cfg.ChooserEntries))
}

// Prediction is the fetch-stage output for one branch.
type Prediction struct {
	Taken     bool
	Target    uint64
	BTBHit    bool
	UsedRAS   bool
	GlobalSel bool   // tournament chose the global side
	GHist     uint64 // snapshot for update/squash restore
	RASTop    int    // snapshot of RAS top for squash restore
}

// PredictBranch predicts a conditional branch at pc.
func (p *Predictor) PredictBranch(pc uint64) Prediction {
	li := p.localIdx(pc)
	localTaken := p.localCtr[p.localCtrIdx(p.localHist[li])].taken()
	globalTaken := p.globalCtr[p.globalIdx(pc)].taken()
	useGlobal := p.chooserCtr[p.chooserIdx()].taken()
	taken := localTaken
	if useGlobal {
		taken = globalTaken
	}
	pr := Prediction{
		Taken:     taken,
		GlobalSel: useGlobal,
		GHist:     p.globalHist,
		RASTop:    p.rasTop,
	}
	pr.Target, pr.BTBHit = p.btbLookup(pc)
	// Speculatively shift predicted direction into global history; a
	// squash restores the snapshot.
	p.globalHist = (p.globalHist<<1 | b2u(taken)) & mask(p.cfg.GlobalHistBits)
	return pr
}

// PredictJump predicts a direct or indirect jump at pc via the BTB.
func (p *Predictor) PredictJump(pc uint64) Prediction {
	pr := Prediction{Taken: true, GHist: p.globalHist, RASTop: p.rasTop}
	pr.Target, pr.BTBHit = p.btbLookup(pc)
	return pr
}

// PredictCall predicts a call: BTB target plus a RAS push of the return
// address.
func (p *Predictor) PredictCall(pc, retAddr uint64) Prediction {
	pr := p.PredictJump(pc)
	p.rasPush(retAddr)
	pr.RASTop = p.rasTop // after push, so squash restore pops it
	return pr
}

// PredictRet predicts a return through the RAS.
func (p *Predictor) PredictRet(pc uint64) Prediction {
	pr := Prediction{Taken: true, GHist: p.globalHist, UsedRAS: true, RASTop: p.rasTop}
	pr.Target = p.rasPop()
	pr.BTBHit = pr.Target != 0
	return pr
}

func (p *Predictor) btbLookup(pc uint64) (uint64, bool) {
	i := int((pc >> 2) % uint64(p.cfg.BTBEntries))
	if p.btbTags[i] == pc {
		return p.btbTargets[i], true
	}
	return 0, false
}

// Update trains the predictor with the resolved outcome of a branch.
// predTaken/ghist come from the fetch-time Prediction.
func (p *Predictor) Update(pc uint64, pr Prediction, taken bool, target uint64, isCond bool) {
	if isCond {
		li := p.localIdx(pc)
		hist := p.localHist[li]
		lci := p.localCtrIdx(hist)
		localWas := p.localCtr[lci].taken()
		// Reconstruct global prediction state at fetch time.
		gi := int((pr.GHist ^ (pc >> 2)) % uint64(p.cfg.GlobalEntries))
		globalWas := p.globalCtr[gi].taken()

		// Chooser trains toward whichever side was right (only when they
		// disagreed).
		ci := int(pr.GHist % uint64(p.cfg.ChooserEntries))
		if localWas != globalWas {
			p.chooserCtr[ci] = p.chooserCtr[ci].update(globalWas == taken)
		}
		p.localCtr[lci] = p.localCtr[lci].update(taken)
		p.globalCtr[gi] = p.globalCtr[gi].update(taken)
		p.localHist[li] = (hist<<1 | b2u(taken)) & mask(p.cfg.LocalHistBits)

		if pr.Taken != taken {
			p.DirMispred++
		}
	}
	if taken {
		i := int((pc >> 2) % uint64(p.cfg.BTBEntries))
		p.btbTags[i] = pc
		p.btbTargets[i] = target
	}
}

// Squash restores speculative predictor state (global history and RAS top)
// to the snapshot taken when the mispredicted branch was fetched, then
// shifts in the correct outcome.
func (p *Predictor) Squash(pr Prediction, actualTaken bool) {
	p.globalHist = (pr.GHist<<1 | b2u(actualTaken)) & mask(p.cfg.GlobalHistBits)
	p.rasTop = pr.RASTop
}

// FlushBTB clears all BTB entries; recent hardware isolates the BTB
// across protection domains (paper §4.9 cites Arm v8.5 / Intel eIBRS).
func (p *Predictor) FlushBTB() {
	for i := range p.btbTags {
		p.btbTags[i] = 0
		p.btbTargets[i] = 0
	}
}

func (p *Predictor) rasPush(addr uint64) {
	p.rasTop = (p.rasTop + 1) % p.cfg.RASEntries
	p.ras[p.rasTop] = addr
}

func (p *Predictor) rasPop() uint64 {
	v := p.ras[p.rasTop]
	p.rasTop = (p.rasTop - 1 + p.cfg.RASEntries) % p.cfg.RASEntries
	return v
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func mask(bitCount int) uint64 { return (1 << uint(bitCount)) - 1 }
