package cpu

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/stats"
)

// busy names the first structure still holding in-flight pipeline state,
// as a format and its argument (an occupancy; for a pending ifetch, the
// line). The format is "" on a quiesced core, the only state a checkpoint
// may capture: the snapshot format has no encoding for in-flight dynInsts.
func (c *Core) busy() (format string, arg uint64) {
	switch {
	case c.rob.len() > 0:
		return "%d instructions in the ROB", uint64(c.rob.len())
	case c.iqCount > 0:
		return "%d instructions in the issue queue", uint64(c.iqCount)
	case len(c.lq) > 0:
		return "%d loads in the load queue", uint64(len(c.lq))
	case len(c.sq) > 0:
		return "%d stores in the store queue", uint64(len(c.sq))
	case c.storeBuf.len() > 0:
		return "%d committed stores in the store buffer", uint64(c.storeBuf.len())
	case c.drainsInFlight > 0:
		return "%d store drains in flight", uint64(c.drainsInFlight)
	case c.fetchLinePend:
		return "in-flight instruction fetch for line %#x", c.fetchPendLine
	}
	return "", 0
}

// Quiet reports whether the core is quiesced, without allocating (the
// drain loop polls it every cycle).
func (c *Core) Quiet() bool { format, _ := c.busy(); return format == "" }

// Quiesced is nil on a quiesced core, else an error naming what holds.
func (c *Core) Quiesced() error {
	if format, arg := c.busy(); format != "" {
		return fmt.Errorf("cpu: "+format, arg)
	}
	return nil
}

// Rows appends the core's checkpoint rows to dst, named after its
// counter keys ("core<i>.regs", ...): the registers, the fetch state, the
// two SafeBet footprints (empty outside the footprint action), the branch
// predictor and the counters.
func (c *Core) Rows(dst []checkpoint.Row) []checkpoint.Row {
	row := func(name string, walk func(*checkpoint.State)) checkpoint.Row {
		return checkpoint.Row{Name: stats.CoreKey(c.id, name), Walk: walk}
	}
	return append(dst,
		row("regs", c.regsWalk),
		row("fetch", c.fetchWalk),
		row("safebet.data", c.sbData.checkpoint),
		row("safebet.code", c.sbCode.checkpoint),
		row("bpred", c.pred.Checkpoint),
		row("counters", func(s *checkpoint.State) {
			for k := range c.ctr {
				s.U64(&c.ctr[k])
			}
		}))
}

// regsWalk walks the architectural registers. It is the core's first row,
// so a load checks here that the core is quiesced (it is after SetProgram
// / RunOn on a fresh machine, on a scheduler at the snapshot's cycle) and
// wakes it: sleep is derived, not saved.
func (c *Core) regsWalk(s *checkpoint.State) {
	if s.Loading() {
		if err := c.Quiesced(); err != nil {
			s.Fail(err)
		}
		c.wake()
	}
	for i := range c.regs {
		s.U64(&c.regs[i])
	}
}

// fetchWalk walks the quiesced front end and the cycles the core waits
// on: fetch pc, stall and halt flags, the commit stall and fetch resume
// cycles, the fetch line, the fetch epoch and sequence number, and the
// divider slots. The waits save as the cycles left (checkpoint.Until).
func (c *Core) fetchWalk(s *checkpoint.State) {
	s.U64(&c.fetchPC)
	s.Bool(&c.fetchStall)
	s.Bool(&c.halted)
	s.Bool(&c.haltedBad)
	now := c.sched.Now()
	checkpoint.Until(s, &c.commitStallUntil, now)
	checkpoint.Until(s, &c.fetchResumeAt, now)
	s.U64(&c.fetchVirtBase)
	s.U64((*uint64)(&c.fetchPhysBase))
	s.U64(&c.fetchLineVA)
	s.Bool(&c.fetchLineOK)
	s.U64(&c.fetchEpoch)
	s.U64(&c.seq)
	nd := uint32(len(c.divFree))
	if s.U32(&nd); s.Loading() && int(nd) != len(c.divFree) {
		s.Failf("core has %d divider slots, snapshot %d", len(c.divFree), nd)
	}
	for i := range c.divFree {
		checkpoint.Until(s, &c.divFree[i], now)
	}
}

// WarmHalt stops the hardware thread from the functional warm-up executor
// (a halt — or an abnormal condition — reached architecturally before the
// measured region began).
func (c *Core) WarmHalt(bad bool) {
	c.wake()
	c.halted = true
	c.haltedBad = bad
}
