package memsys

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/stats"
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
		{"%d parked completions", p.parked.live()},
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

// Rows appends the shared level's checkpoint rows to dst, one section
// per structure: the L2, its port's wait (checkpoint.Until), DRAM, the
// prefetcher, and the counters, DRAM's among them.
func (h *Hierarchy) Rows(dst []checkpoint.Row) []checkpoint.Row {
	return append(dst,
		checkpoint.Row{Name: "l2", Walk: h.l2.Checkpoint},
		checkpoint.Row{Name: "l2.port", Walk: func(s *checkpoint.State) { checkpoint.Until(s, &h.l2PortFree, h.sched.Now()) }},
		checkpoint.Row{Name: "dram", Walk: h.dram.Checkpoint},
		checkpoint.Row{Name: "pf", Walk: h.pf.Checkpoint},
		checkpoint.Row{Name: "hier.counters", Walk: func(s *checkpoint.State) {
			for k := range h.ctr {
				s.U64(&h.ctr[k])
			}
		}},
	)
}

// Rows appends the port's checkpoint rows to dst, named after its
// counter keys ("core<i>.l1d", ...): its caches and TLBs, the filter
// structures its configuration has, its ASID and its counters (its filter
// caches' and TLBs' among them). A filter structure may be missing from
// an image: a warm snapshot of an unprotected machine restores into a
// protected one, whose filter state legitimately starts empty.
func (p *Port) Rows(dst []checkpoint.Row) []checkpoint.Row {
	row := func(name string, walk func(*checkpoint.State), filter bool) checkpoint.Row {
		return checkpoint.Row{Name: stats.CoreKey(p.id, name), Walk: walk, MayBeMissing: filter}
	}
	dst = append(dst, row("l1d", p.l1d.Checkpoint, false), row("l1i", p.l1i.Checkpoint, false),
		row("dtlb", p.dtlb.Checkpoint, false), row("itlb", p.itlb.Checkpoint, false))
	if p.l0d != nil {
		dst = append(dst, row("l0d", p.l0d.Checkpoint, true))
	}
	if p.l0i != nil {
		dst = append(dst, row("l0i", p.l0i.Checkpoint, true))
	}
	if p.fdtlb != nil {
		dst = append(dst, row("fdtlb", p.fdtlb.Checkpoint, true))
	}
	return append(dst,
		row("asid", func(s *checkpoint.State) { s.U64(&p.asid) }, false),
		row("port.counters", func(s *checkpoint.State) {
			for k := range p.ctr {
				s.U64(&p.ctr[k])
			}
		}, false))
}
