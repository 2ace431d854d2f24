package memsys

import (
	"repro/internal/cache"
	"repro/internal/mem"
)

// Functional warm-up path. The checkpoint fast-forward executes the
// warm-up region architecturally — no speculation, no events, no elapsed
// cycles — and uses these methods to deposit the access stream's footprint
// into the non-speculative structures (main TLBs, L1s, inclusive L2). The
// L1s' line states are the coherence state, so warming them warms it.
// Filter caches and the filter TLB hold only speculative state and are
// never warmed, which is precisely what makes a warm snapshot
// scheme-independent: none of these methods consults Mode. None of them
// counts anything either: every counter belongs to the measured region.

// WarmTranslate warms the main I- or D-TLB with (vpn -> pfn), reporting
// whether the translation missed (in which case the caller also warms the
// page-walk lines, as the hardware walker's reads would have). It counts
// no lookup or hit.
func (p *Port) WarmTranslate(vpn, pfn uint64, instr bool) bool {
	t := p.mainTLB(instr)
	if _, hit := t.Lookup(p.asid, vpn); hit {
		return false
	}
	t.Insert(p.asid, vpn, pfn)
	return true
}

// WarmData deposits paddr's line in this core's L1D (and the inclusive
// L2), with the same coherence transitions a non-speculative demand
// access at fill completion would perform. A write takes the line
// Modified, invalidating remote sharers, exactly as a committed store
// drain does. A downgrade or an L2 writeback it causes is not counted.
func (p *Port) WarmData(paddr mem.Addr, write bool) {
	defer p.h.restoreCounters(p.h.ctr)
	line := uint64(mem.LineAddr(paddr))
	if write {
		if l := p.l1d.Lookup(line); l != nil && l.State.Owned() {
			l.State = cache.Modified
			return
		}
		p.h.invalidateSharers(line, p.id)
		p.l1InstallData(line, cache.Modified)
		p.h.dirtyL2(line)
		return
	}
	if p.l1d.Lookup(line) != nil {
		return
	}
	p.l1InstallData(line, p.h.fillState(line, p.id))
}

// WarmInst deposits the instruction line containing paddr in this core's
// L1I and the inclusive L2. An L2 writeback it causes is not counted.
func (p *Port) WarmInst(paddr mem.Addr) {
	defer p.h.restoreCounters(p.h.ctr)
	line := uint64(mem.LineAddr(paddr))
	if p.l1i.Lookup(line) != nil {
		return
	}
	p.l1InstallInst(line)
}

// restoreCounters puts the shared level's counters back to ctr. A warm
// deposit runs the demand path's coherence transitions and L2 evictions,
// which count remote downgrades, writebacks and DRAM accesses as they
// go; the warm-up takes those counts back.
func (h *Hierarchy) restoreCounters(ctr [numHierCounters]uint64) { h.ctr = ctr }
