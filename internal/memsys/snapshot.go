package memsys

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/event"
)

// Quiet is the allocation-free form of Quiesced, for callers that poll
// every cycle (the drain loop): Quiet() == (Quiesced() == nil), without
// building an error. The two must cover the same conditions; the quiesce
// table test pins the equivalence.
func (h *Hierarchy) Quiet() bool {
	if h.l2MSHRs.InUse() > 0 {
		return false
	}
	for _, p := range h.ports {
		if !p.quiet() {
			return false
		}
	}
	return true
}

func (p *Port) quiet() bool {
	if p.l1dMSHRs.InUse() > 0 || p.l1iMSHRs.InUse() > 0 {
		return false
	}
	if p.l0d != nil && p.l0d.MSHRs.InUse() > 0 {
		return false
	}
	if p.l0i != nil && p.l0i.MSHRs.InUse() > 0 {
		return false
	}
	return len(p.cbs) == len(p.cbFree) && len(p.vcbs) == len(p.vcbFree) &&
		len(p.mwait) == len(p.mwaitFree) && len(p.iwait) == len(p.iwaitFree) &&
		len(p.walks) == len(p.walkFree)
}

// Quiesced reports whether the hierarchy holds no in-flight transactions:
// every MSHR file empty and no parked completion callbacks. Checkpoints
// are only valid in this state.
func (h *Hierarchy) Quiesced() error {
	if n := h.l2MSHRs.InUse(); n > 0 {
		return fmt.Errorf("memsys: %d live L2 MSHRs", n)
	}
	for i, p := range h.ports {
		if err := p.quiesced(); err != nil {
			return fmt.Errorf("memsys: port %d: %w", i, err)
		}
	}
	return nil
}

func (p *Port) quiesced() error {
	if n := p.l1dMSHRs.InUse(); n > 0 {
		return fmt.Errorf("%d live L1D MSHRs", n)
	}
	if n := p.l1iMSHRs.InUse(); n > 0 {
		return fmt.Errorf("%d live L1I MSHRs", n)
	}
	if p.l0d != nil {
		if n := p.l0d.MSHRs.InUse(); n > 0 {
			return fmt.Errorf("%d live L0D MSHRs", n)
		}
	}
	if p.l0i != nil {
		if n := p.l0i.MSHRs.InUse(); n > 0 {
			return fmt.Errorf("%d live L0I MSHRs", n)
		}
	}
	if live := len(p.cbs) - len(p.cbFree); live > 0 {
		return fmt.Errorf("%d parked access callbacks", live)
	}
	if live := len(p.vcbs) - len(p.vcbFree); live > 0 {
		return fmt.Errorf("%d parked void callbacks", live)
	}
	if live := len(p.mwait) - len(p.mwaitFree); live > 0 {
		return fmt.Errorf("%d parked MSHR waiters", live)
	}
	if live := len(p.iwait) - len(p.iwaitFree); live > 0 {
		return fmt.Errorf("%d parked ifetch MSHR waiters", live)
	}
	if live := len(p.walks) - len(p.walkFree); live > 0 {
		return fmt.Errorf("%d in-flight page-table walks", live)
	}
	return nil
}

// Save serialises the shared level (L2, directory, DRAM, prefetcher,
// filter-sharer tracking, statistics) into the "hier" section and each
// port into its own "port<i>" section.
func (h *Hierarchy) Save(snap *checkpoint.Snapshot) {
	w := snap.Section("hier")
	// Reserve the whole section before the L2 image goes in: a buffer sized
	// for the L2 alone is reallocated, image and all, when the directory is
	// appended. The L2 and the three tables are exact; the last term is an
	// upper bound on the rest (MSHR statistics, DRAM banks, prefetcher
	// table, counters).
	w.Grow(h.l2.SaveSize() + 33*len(h.dir) + 16*(len(h.filterSharers)+len(h.filterOwner)) +
		32*(h.cfg.DRAM.Banks+h.cfg.Prefetch.TableEntries) + 256)
	h.l2.Save(w)
	h.l2MSHRs.Save(w)
	w.U64(uint64(h.l2PortFree))
	h.dram.Save(w)

	lines := make([]uint64, 0, len(h.dir))
	for line := range h.dir {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.U64(uint64(len(lines)))
	for _, line := range lines {
		e := h.dir[line]
		w.U64(line)
		w.I64(int64(e.owner))
		w.U8(uint8(e.ownerState))
		w.U64(e.sharers)
		w.U64(e.isharers)
	}

	saveU64Map := func(m map[uint64]uint64) {
		ks := make([]uint64, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		w.U64(uint64(len(ks)))
		for _, k := range ks {
			w.U64(k)
			w.U64(m[k])
		}
	}
	saveU64Map(h.filterSharers)
	owners := make(map[uint64]uint64, len(h.filterOwner))
	for k, v := range h.filterOwner {
		owners[k] = uint64(v)
	}
	saveU64Map(owners)

	w.Bool(h.pf != nil)
	if h.pf != nil {
		h.pf.Save(w)
	}

	w.U64(h.L2Hits)
	w.U64(h.L2Misses)
	w.U64(h.DRAMFills)
	w.U64(h.NACKs)
	w.U64(h.RemoteDowngrades)
	w.U64(h.FilterBroadcasts)
	w.U64(h.PrefetchFills)
	w.U64(h.L2Writebacks)

	for i, p := range h.ports {
		p.save(snap.Section(fmt.Sprintf("port%d", i)))
	}
}

// Restore loads hierarchy state saved by Save. Filter structures present
// in the snapshot but absent from this configuration (or vice versa) are
// an error for the former and restored-empty for the latter: a snapshot
// taken on an unprotected warm-up machine restores cleanly into any
// protected configuration, whose filter caches legitimately start empty.
func (h *Hierarchy) Restore(snap *checkpoint.Snapshot) error {
	r, err := snap.Open("hier")
	if err != nil {
		return err
	}
	if err := h.l2.Restore(r); err != nil {
		return err
	}
	if err := h.l2MSHRs.Restore(r); err != nil {
		return err
	}
	h.l2PortFree = event.Cycle(r.U64())
	if err := h.dram.Restore(r); err != nil {
		return err
	}

	h.dir = make(map[uint64]*dirEntry)
	n := r.U64()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		line := r.U64()
		e := &dirEntry{
			owner:      int(r.I64()),
			ownerState: cache.State(r.U8()),
			sharers:    r.U64(),
			isharers:   r.U64(),
		}
		h.dir[line] = e
	}

	h.filterSharers = make(map[uint64]uint64)
	n = r.U64()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		k := r.U64()
		h.filterSharers[k] = r.U64()
	}
	h.filterOwner = make(map[uint64]int)
	n = r.U64()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		k := r.U64()
		h.filterOwner[k] = int(r.U64())
	}

	hadPf := r.Bool()
	if hadPf {
		if h.pf == nil {
			return r.Failf("snapshot has prefetcher state but prefetching is disabled")
		}
		if err := h.pf.Restore(r); err != nil {
			return err
		}
	}

	h.L2Hits = r.U64()
	h.L2Misses = r.U64()
	h.DRAMFills = r.U64()
	h.NACKs = r.U64()
	h.RemoteDowngrades = r.U64()
	h.FilterBroadcasts = r.U64()
	h.PrefetchFills = r.U64()
	h.L2Writebacks = r.U64()
	if err := r.Err(); err != nil {
		return err
	}

	for i, p := range h.ports {
		pr, err := snap.Open(fmt.Sprintf("port%d", i))
		if err != nil {
			return err
		}
		if err := p.restore(pr); err != nil {
			return fmt.Errorf("port %d: %w", i, err)
		}
	}
	return nil
}

// save serialises one port: caches, TLBs, filter structures (presence-
// flagged), counters.
func (p *Port) save(w *checkpoint.Writer) {
	p.l1d.Save(w)
	p.l1dMSHRs.Save(w)
	p.l1i.Save(w)
	p.l1iMSHRs.Save(w)
	p.dtlb.Save(w)
	p.itlb.Save(w)
	w.Bool(p.l0d != nil)
	if p.l0d != nil {
		p.l0d.Save(w)
	}
	w.Bool(p.l0i != nil)
	if p.l0i != nil {
		p.l0i.Save(w)
	}
	w.Bool(p.fdtlb != nil)
	if p.fdtlb != nil {
		p.fdtlb.Save(w)
	}
	w.U64(p.asid)
	w.U64(p.lastCommitILine)
	for i := PortCounter(0); i < numPortCounters; i++ {
		w.U64(p.ctr[i])
	}
}

func (p *Port) restore(r *checkpoint.Reader) error {
	if err := p.l1d.Restore(r); err != nil {
		return err
	}
	if err := p.l1dMSHRs.Restore(r); err != nil {
		return err
	}
	if err := p.l1i.Restore(r); err != nil {
		return err
	}
	if err := p.l1iMSHRs.Restore(r); err != nil {
		return err
	}
	if err := p.dtlb.Restore(r); err != nil {
		return err
	}
	if err := p.itlb.Restore(r); err != nil {
		return err
	}
	restoreOptional := func(present bool, do func(*checkpoint.Reader) error, what string) error {
		if !r.Bool() {
			return r.Err() // absent in snapshot: leave this machine's (empty) structure alone
		}
		if !present {
			return r.Failf("snapshot has %s state but this configuration lacks it", what)
		}
		return do(r)
	}
	if err := restoreOptional(p.l0d != nil, func(r *checkpoint.Reader) error { return p.l0d.Restore(r) }, "L0D"); err != nil {
		return err
	}
	if err := restoreOptional(p.l0i != nil, func(r *checkpoint.Reader) error { return p.l0i.Restore(r) }, "L0I"); err != nil {
		return err
	}
	if err := restoreOptional(p.fdtlb != nil, func(r *checkpoint.Reader) error { return p.fdtlb.Restore(r) }, "filter TLB"); err != nil {
		return err
	}
	p.asid = r.U64()
	p.lastCommitILine = r.U64()
	for i := PortCounter(0); i < numPortCounters; i++ {
		p.ctr[i] = r.U64()
	}
	return r.Err()
}
