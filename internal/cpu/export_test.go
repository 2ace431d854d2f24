package cpu

import (
	"fmt"

	"repro/internal/isa"
)

// CheckIssueQueue is the issue stage's oracle: it recomputes, from the ROB
// alone and without latching anything, what the polling scan this package
// used to run every cycle would have concluded about each issue-queue
// entry, and checks the wake-up bookkeeping against it:
//
//   - an entry is in the ready list ⇔ all its operands are latched ⇔ the
//     polled definition holds (each used operand is latched, or has no
//     producer, or its producer was recycled, or is done and not faulted);
//   - a latched operand holds what a poll would read now: its live
//     producer's result (the producer done and not faulted), or the
//     architectural register once the producer was recycled;
//   - the ready list is strictly ascending in seq and holds only live
//     issue-queue entries;
//   - iqCount equals the number of ROB entries with inIQ set;
//   - every entry that still waits is reachable from the waiter chain of
//     each producer it waits on;
//   - waiter chains hang only off live instructions, and nodes in chains
//     plus nodes on the free chain account for the whole slab — with an
//     empty ROB, every node is free.
func (c *Core) CheckIssueQueue() error {
	inReady := make(map[*dynInst]bool, len(c.ready))
	var prev uint64
	for i, d := range c.ready {
		if d.seq == 0 || d.squashed || !d.inIQ {
			return fmt.Errorf("ready[%d] (slot %d, seq %d) is not a live issue-queue entry: squashed=%v inIQ=%v",
				i, d.idx, d.seq, d.squashed, d.inIQ)
		}
		if d.seq <= prev {
			return fmt.Errorf("ready list not strictly ascending: ready[%d].seq = %d after %d", i, d.seq, prev)
		}
		prev = d.seq
		inReady[d] = true
	}

	// available is one operand's term of the old operandsReady.
	available := func(use, latched bool, p *dynInst, pSeq uint64) bool {
		return !use || latched || p == nil || p.seq != pSeq || (p.done && !p.faulted)
	}
	// latchedRight checks a latched operand against what a poll would read.
	latchedRight := func(v uint64, p *dynInst, pSeq uint64, reg isa.Reg) bool {
		switch {
		case p == nil:
			return true // no producer at dispatch: the value was architectural then
		case p.seq != pSeq:
			return v == c.regs[reg]
		default:
			return p.done && !p.faulted && v == p.result
		}
	}
	parkedOn := func(p, d *dynInst) bool {
		for n, steps := p.waiters, 0; n != 0 && steps < len(c.waitNodes); n, steps = c.waitNodes[n].next, steps+1 {
			if w := c.waitNodes[n]; w.idx == d.idx && w.seq == d.seq {
				return true
			}
		}
		return false
	}
	count := 0
	for i := 0; i < c.rob.len(); i++ {
		d := c.rob.at(i)
		if d.squashed {
			return fmt.Errorf("rob[%d] (seq %d) is squashed but still in the ROB", i, d.seq)
		}
		if !d.inIQ {
			continue
		}
		count++
		ok1 := available(d.use1, d.v1Ready, d.src1, d.src1Seq)
		ok2 := available(d.use2, d.v2Ready, d.src2, d.src2Seq)
		polled := ok1 && ok2
		if polled != inReady[d] || polled != operandsLatched(d) {
			return fmt.Errorf("seq %d (pc %#x): a poll would find ready=%v, but latched=%v and in the ready list=%v",
				d.seq, d.pc, polled, operandsLatched(d), inReady[d])
		}
		if d.use1 && d.v1Ready && !latchedRight(d.v1, d.src1, d.src1Seq, d.si.Src1) {
			return fmt.Errorf("seq %d: operand 1 latched as %#x, not what a poll would read", d.seq, d.v1)
		}
		if d.use2 && d.v2Ready && !latchedRight(d.v2, d.src2, d.src2Seq, d.si.Src2) {
			return fmt.Errorf("seq %d: operand 2 latched as %#x, not what a poll would read", d.seq, d.v2)
		}
		if !ok1 && !parkedOn(d.src1, d) {
			return fmt.Errorf("seq %d waits for operand 1 but is not on producer seq %d's waiter chain", d.seq, d.src1Seq)
		}
		if !ok2 && !parkedOn(d.src2, d) {
			return fmt.Errorf("seq %d waits for operand 2 but is not on producer seq %d's waiter chain", d.seq, d.src2Seq)
		}
		delete(inReady, d)
	}
	for d := range inReady {
		return fmt.Errorf("ready list holds seq %d, which is not in the ROB", d.seq)
	}
	if count != c.iqCount {
		return fmt.Errorf("iqCount = %d, but %d ROB entries hold an issue-queue slot", c.iqCount, count)
	}

	total := len(c.waitNodes) - 1
	chained := 0
	for _, p := range c.insts {
		if p.waiters == 0 {
			continue
		}
		if p.seq == 0 {
			return fmt.Errorf("free pool slot %d still heads a waiter chain", p.idx)
		}
		for n := p.waiters; n != 0; n = c.waitNodes[n].next {
			if chained++; chained > total {
				return fmt.Errorf("waiter chain of seq %d does not terminate", p.seq)
			}
		}
	}
	free := 0
	for n := c.waitFree; n != 0; n = c.waitNodes[n].next {
		if free++; free > total {
			return fmt.Errorf("waiter free chain does not terminate")
		}
	}
	if chained+free != total {
		return fmt.Errorf("waiter slab leak: %d chained + %d free != %d allocated", chained, free, total)
	}
	if c.rob.len() == 0 && chained != 0 {
		return fmt.Errorf("empty ROB but %d waiter nodes still chained", chained)
	}
	return nil
}

// WaiterStats counts, over all waiter chains, the nodes whose consumer was
// squashed and recycled after it parked (stale: wake drops them by seq
// check) and the nodes parked on a producer that completed with a fault
// (never woken: only the squash releases them). Tests use it to show that
// their kernels do reach both cases.
func (c *Core) WaiterStats() (stale, onFaulted int) {
	for _, p := range c.insts {
		for n, steps := p.waiters, 0; n != 0 && steps < len(c.waitNodes); n, steps = c.waitNodes[n].next, steps+1 {
			if w := c.waitNodes[n]; c.insts[w.idx].seq != w.seq {
				stale++
			} else if p.done && p.faulted {
				onFaulted++
			}
		}
	}
	return stale, onFaulted
}
