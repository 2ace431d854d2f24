package prefetch

import "repro/internal/mem"

// Config sizes the stride prefetcher.
type Config struct {
	TableEntries int
	// Degree is how many lines ahead to prefetch once a stride locks.
	Degree int
	// TrainThreshold is how many consecutive matching strides lock an entry.
	TrainThreshold int
}

// DefaultConfig matches a modest L2 stride prefetcher.
func DefaultConfig() Config {
	return Config{TableEntries: 64, Degree: 2, TrainThreshold: 2}
}

type entry struct {
	pc       uint64
	lastAddr mem.Addr
	stride   int64
	conf     int
	valid    bool
}

// Prefetcher is a per-PC stride predictor. Issue is a callback the owner
// installs to receive prefetch addresses (the L2 turns them into fills).
type Prefetcher struct {
	cfg   Config
	table []entry
	Issue func(addr mem.Addr)
}

// New builds a stride prefetcher.
func New(cfg Config) *Prefetcher {
	return &Prefetcher{cfg: cfg, table: make([]entry, cfg.TableEntries)}
}

func (p *Prefetcher) slot(pc uint64) *entry {
	return &p.table[(pc>>2)%uint64(len(p.table))]
}

// Observe trains the prefetcher with a demand access by the load at pc to
// addr, and issues prefetches when the entry is confident. The caller
// decides *when* accesses are observed: at execute time (insecure) or at
// commit time (MuonTrap).
func (p *Prefetcher) Observe(pc uint64, addr mem.Addr) {
	e := p.slot(pc)
	if !e.valid || e.pc != pc {
		*e = entry{pc: pc, lastAddr: addr, valid: true}
		return
	}
	stride := int64(addr) - int64(e.lastAddr)
	e.lastAddr = addr
	if stride == 0 {
		return
	}
	if stride == e.stride {
		if e.conf < p.cfg.TrainThreshold {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 1
		return
	}
	if e.conf >= p.cfg.TrainThreshold && p.Issue != nil {
		for i := 1; i <= p.cfg.Degree; i++ {
			target := mem.Addr(int64(addr) + stride*int64(i))
			p.Issue(mem.LineAddr(target))
		}
	}
}

// Reset clears all training state.
func (p *Prefetcher) Reset() {
	for i := range p.table {
		p.table[i] = entry{}
	}
}
