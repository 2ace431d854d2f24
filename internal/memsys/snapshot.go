package memsys

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/event"
)

// busy names the first structure of the hierarchy still holding
// something: its port (-1 for the shared level), a format naming it and
// its occupancy n. n is 0 on a quiesced hierarchy — every MSHR file empty,
// every slot registry empty — the only state a checkpoint may capture.
func (h *Hierarchy) busy() (port int, format string, n int) {
	if n := h.l2MSHRs.InUse(); n > 0 {
		return -1, "%d live L2 MSHRs", n
	}
	for i, p := range h.ports {
		if format, n := p.busy(); n > 0 {
			return i, format, n
		}
	}
	return -1, "", 0
}

// busy names the first structure of the port still holding something, as
// a format and its occupancy; the occupancy is 0 on a quiesced port.
func (p *Port) busy() (format string, n int) {
	for _, s := range [...]struct {
		format string
		n      int
	}{
		{"%d live L1D MSHRs", p.l1dMSHRs.InUse()},
		{"%d live L1I MSHRs", p.l1iMSHRs.InUse()},
		{"%d live L0D MSHRs", filterMSHRs(p.l0d)},
		{"%d live L0I MSHRs", filterMSHRs(p.l0i)},
		{"%d parked access callbacks", p.cbs.live()},
		{"%d parked void callbacks", p.vcbs.live()},
		{"%d parked MSHR waiters", p.mwait.live()},
		{"%d parked ifetch MSHR waiters", p.iwait.live()},
		{"%d in-flight page-table walks", p.walks.live()},
		{"%d parked L1D misses", p.misses.live()},
	} {
		if s.n > 0 {
			return s.format, s.n
		}
	}
	return "", 0
}

// filterMSHRs counts a filter cache's live MSHRs; an absent one has none.
func filterMSHRs(f *core.FilterCache) int {
	if f == nil {
		return 0
	}
	return f.MSHRs.InUse()
}

// Quiet reports whether the hierarchy is quiesced, without allocating
// (the drain loop polls it every cycle).
func (h *Hierarchy) Quiet() bool { _, _, n := h.busy(); return n == 0 }

// Quiesced is nil on a quiesced hierarchy, else an error naming what
// holds and how much.
func (h *Hierarchy) Quiesced() error {
	port, format, n := h.busy()
	switch {
	case n == 0:
		return nil
	case port < 0:
		return fmt.Errorf("memsys: "+format, n)
	}
	return fmt.Errorf("memsys: port %d: "+format, port, n)
}

// Occupancy counts the table entries the hierarchy holds: valid cache
// lines and translations at every level, directory and filter-tracking
// entries, trained prefetcher slots. A checkpoint's size is proportional
// to it, not to the geometry. It is counted on demand; nothing on the
// simulation path maintains it.
func (h *Hierarchy) Occupancy() int {
	n := h.l2.CountValid() + len(h.dir) + len(h.filterSharers) + len(h.filterOwner)
	if h.pf != nil {
		n += h.pf.CountValid()
	}
	for _, p := range h.ports {
		n += p.l1d.CountValid() + p.l1i.CountValid() + p.dtlb.CountValid() + p.itlb.CountValid()
		if p.l0d != nil {
			n += p.l0d.CountValid()
		}
		if p.l0i != nil {
			n += p.l0i.CountValid()
		}
		if p.fdtlb != nil {
			n += p.fdtlb.CountValid()
		}
	}
	return n
}

// dirSaveBytes is one saved directory entry: line, owner, owner state,
// sharers, instruction sharers.
const dirSaveBytes = 8 + 8 + 1 + 8 + 8

// Save serialises the shared level (L2, directory, DRAM, prefetcher,
// filter-sharer tracking, statistics) into the "hier" section and each
// port into its own "port<i>" section. Every section is reserved at its
// exact size before the first field goes in.
func (h *Hierarchy) Save(snap *checkpoint.Snapshot) {
	w := snap.Section("hier")
	size := h.l2.SaveSize() + 8 + h.dram.SaveSize() +
		8 + dirSaveBytes*len(h.dir) + 8 + 16*len(h.filterSharers) + 8 + 16*len(h.filterOwner) +
		1 + 8*len(h.ctr)
	if h.pf != nil {
		size += h.pf.SaveSize()
	}
	w.Grow(size)
	h.l2.Save(w)
	w.U64(uint64(h.l2PortFree))
	h.dram.Save(w)

	// The three maps are written in ascending key order so equal state is
	// equal bytes; one key buffer serves all three.
	keys := make([]uint64, 0, max(len(h.dir), len(h.filterSharers), len(h.filterOwner)))
	keys = sortedKeys(keys, h.dir)
	w.U64(uint64(len(keys)))
	for _, line := range keys {
		e := h.dir[line]
		w.U64(line)
		w.I64(int64(e.owner))
		w.U8(uint8(e.ownerState))
		w.U64(e.sharers)
		w.U64(e.isharers)
	}
	keys = sortedKeys(keys, h.filterSharers)
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.U64(k)
		w.U64(h.filterSharers[k])
	}
	keys = sortedKeys(keys, h.filterOwner)
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.U64(k)
		w.U64(uint64(h.filterOwner[k]))
	}

	w.Bool(h.pf != nil)
	if h.pf != nil {
		h.pf.Save(w)
	}

	for _, v := range h.ctr {
		w.U64(v)
	}

	for i, p := range h.ports {
		p.save(snap.Section(fmt.Sprintf("port%d", i)))
	}
}

// sortedKeys returns m's keys in ascending order, in buf's storage.
func sortedKeys[V any](buf []uint64, m map[uint64]V) []uint64 {
	buf = buf[:0]
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
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
		if r.Err() == nil && (e.owner < -1 || e.owner >= len(h.ports)) {
			return r.Failf("directory entry %#x owned by core %d of %d", line, e.owner, len(h.ports))
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
		k, owner := r.U64(), r.U64()
		if r.Err() == nil && owner >= uint64(len(h.ports)) {
			return r.Failf("filter line %#x owned by core %d of %d", k, owner, len(h.ports))
		}
		h.filterOwner[k] = int(owner)
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

	for k := range h.ctr {
		h.ctr[k] = r.U64()
	}
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
	size := p.l1d.SaveSize() + p.l1i.SaveSize() +
		p.dtlb.SaveSize() + p.itlb.SaveSize() + 3 + 8 + 8 + 8*len(p.ctr)
	if p.l0d != nil {
		size += p.l0d.SaveSize()
	}
	if p.l0i != nil {
		size += p.l0i.SaveSize()
	}
	if p.fdtlb != nil {
		size += p.fdtlb.SaveSize()
	}
	w.Grow(size)
	p.l1d.Save(w)
	p.l1i.Save(w)
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
	for _, v := range p.ctr {
		w.U64(v)
	}
}

func (p *Port) restore(r *checkpoint.Reader) error {
	if err := p.l1d.Restore(r); err != nil {
		return err
	}
	if err := p.l1i.Restore(r); err != nil {
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
	for k := range p.ctr {
		p.ctr[k] = r.U64()
	}
	return r.Err()
}
