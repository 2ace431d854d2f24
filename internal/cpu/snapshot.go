package cpu

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/event"
	"repro/internal/mem"
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

// Save serialises the core's architectural and quiesced-microarchitectural
// state: registers, fetch state, statistics and the branch predictor.
func (c *Core) Save(w *checkpoint.Writer) {
	// Registers, 8 fetch/sequence words, 4 flags, the divider slots, the
	// counters, the two SafeBet footprints, the predictor.
	w.Grow(8*len(c.regs) + 8*8 + 4 + 4 + 8*len(c.divFree) + 8*len(c.ctr) +
		4 + 8*len(c.sbData) + 4 + 8*len(c.sbCode) + c.pred.SaveSize())
	for _, v := range c.regs {
		w.U64(v)
	}
	w.U64(c.fetchPC)
	w.Bool(c.fetchStall)
	w.Bool(c.halted)
	w.Bool(c.haltedBad)
	w.U64(uint64(c.commitStallUntil))
	w.U64(uint64(c.fetchResumeAt))
	w.U64(c.fetchVirtBase)
	w.U64(uint64(c.fetchPhysBase))
	w.U64(c.fetchLineVA)
	w.Bool(c.fetchLineOK)
	w.U64(c.fetchEpoch)
	w.U64(c.seq)
	w.U32(uint32(len(c.divFree)))
	for _, f := range c.divFree {
		w.U64(uint64(f))
	}
	for _, v := range c.ctr {
		w.U64(v)
	}
	c.sbData.save(w) // both footprints are empty outside the footprint action
	c.sbCode.save(w)
	c.pred.Save(w)
}

// Restore loads state saved by Save. The core must be quiesced (it is
// after SetProgram / RunOn on a fresh machine).
func (c *Core) Restore(r *checkpoint.Reader) error {
	if err := c.Quiesced(); err != nil {
		return err
	}
	c.wake() // a restored core starts awake; sleep is derived, not saved
	for i := range c.regs {
		c.regs[i] = r.U64()
	}
	c.fetchPC = r.U64()
	c.fetchStall = r.Bool()
	c.halted = r.Bool()
	c.haltedBad = r.Bool()
	c.commitStallUntil = event.Cycle(r.U64())
	c.fetchResumeAt = event.Cycle(r.U64())
	c.fetchVirtBase = r.U64()
	c.fetchPhysBase = mem.Addr(r.U64())
	c.fetchLineVA = r.U64()
	c.fetchLineOK = r.Bool()
	c.fetchEpoch = r.U64()
	c.seq = r.U64()
	nd := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if nd != len(c.divFree) {
		return r.Failf("core has %d divider slots, snapshot %d", len(c.divFree), nd)
	}
	for i := range c.divFree {
		c.divFree[i] = event.Cycle(r.U64())
	}
	for k := range c.ctr {
		c.ctr[k] = r.U64()
	}
	if err := c.sbData.restore(r); err != nil {
		return err
	}
	if err := c.sbCode.restore(r); err != nil {
		return err
	}
	if err := c.pred.Restore(r); err != nil {
		return err
	}
	return r.Err()
}

// WarmHalt stops the hardware thread from the functional warm-up executor
// (a halt — or an abnormal condition — reached architecturally before the
// measured region began).
func (c *Core) WarmHalt(bad bool) {
	c.wake()
	c.halted = true
	c.haltedBad = bad
}
