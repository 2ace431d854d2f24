package memsys

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/core"
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
		{"%d in-flight page-table walks", p.walks.live()},
		{"%d parked L1 misses", p.misses.live()},
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
// lines and translations at every level and trained prefetcher slots. A checkpoint's size is proportional to it, not to the
// geometry. It is counted on demand; nothing on the simulation path
// maintains it.
func (h *Hierarchy) Occupancy() int {
	n := h.l2.CountValid() + h.pf.CountValid()
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

// Checkpoint puts the hierarchy into snap — or, with load, gets it from
// snap — as the "hier" section for the shared level and a "port<i>"
// section for each port. Filter structures present in a snapshot but
// absent from this configuration are an error; absent from the snapshot
// but present here, they are left as they are (empty): a snapshot taken on
// an unprotected warm-up machine restores cleanly into any protected
// configuration, whose filter caches legitimately start empty.
func (h *Hierarchy) Checkpoint(snap *checkpoint.Snapshot, load bool) error {
	if err := snap.Section(load, "hier", h.shared); err != nil {
		return err
	}
	for i, p := range h.ports {
		if p.section == "" {
			p.section = fmt.Sprintf("port%d", i)
		}
		if err := snap.Section(load, p.section, p.checkpoint); err != nil {
			return fmt.Errorf("port %d: %w", i, err)
		}
	}
	return nil
}

// shared walks the shared level: L2, its port's wait (checkpoint.Until),
// DRAM, the prefetcher and the counters, DRAM's among them.
func (h *Hierarchy) shared(s *checkpoint.State) {
	h.l2.Checkpoint(s)
	checkpoint.Until(s, &h.l2PortFree, h.sched.Now())
	h.dram.Checkpoint(s)
	h.pf.Checkpoint(s)
	for k := range h.ctr {
		s.U64(&h.ctr[k])
	}
}

// checkpoint walks one port: caches, TLBs, the presence-flagged filter
// structures, its ASID, counters (its filter caches' and TLBs' among
// them).
func (p *Port) checkpoint(s *checkpoint.State) {
	p.l1d.Checkpoint(s)
	p.l1i.Checkpoint(s)
	p.dtlb.Checkpoint(s)
	p.itlb.Checkpoint(s)
	optional(s, p.l0d, "L0D")
	optional(s, p.l0i, "L0I")
	optional(s, p.fdtlb, "filter TLB")
	s.U64(&p.asid)
	for k := range p.ctr {
		s.U64(&p.ctr[k])
	}
}

// optional walks a structure this configuration may lack (x nil) behind a
// presence flag. A load of a structure the snapshot lacks leaves this
// machine's (empty) one alone; one of a structure this machine lacks
// fails.
func optional[T interface {
	comparable
	Checkpoint(*checkpoint.State)
}](s *checkpoint.State, x T, what string) {
	var none T
	present := x != none
	if s.Bool(&present); !present {
		return
	}
	if x == none {
		s.Failf("snapshot has %s state but this configuration lacks it", what)
	}
	x.Checkpoint(s)
}
