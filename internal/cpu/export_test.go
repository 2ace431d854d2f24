package cpu

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"unsafe"

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
//   - waiter and parked-load chains hang only off live instructions, and
//     nodes in chains plus nodes on the free chain account for the whole
//     slab — with an empty ROB, every node is free.
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
		for _, head := range [2]int32{p.waiters, p.parked} {
			if head == 0 {
				continue
			}
			if p.seq == 0 {
				return fmt.Errorf("free pool slot %d still heads a chain", p.idx)
			}
			for n := head; n != 0; n = c.waitNodes[n].next {
				if chained++; chained > total {
					return fmt.Errorf("a chain of seq %d does not terminate", p.seq)
				}
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
// squashed and recycled after it parked (stale: wakeWaiters drops them by seq
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

// CheckParkedLoads is the oracle for the loads that wait on older stores
// and for the safety frontiers: it recomputes what the per-cycle scans this
// package used to run would conclude, and holds the event-driven
// bookkeeping to it.
//
//   - a load queue entry in memWaitingOlderStores is either on the retry
//     list (memMaintenance looks at it next cycle) or parked on exactly one
//     instruction — otherwise nothing would ever retry it;
//   - a parked load is still blocked by the polled definition (the
//     disambiguation scan as it ran every cycle: an older AMO or an older
//     store without an address), and the instruction it is parked on is
//     one that will release it: live, and not yet completed — or an AMO,
//     not yet committed;
//   - the polled definition's third way to wait — a matching store whose
//     data producer has not executed — never arises for any load, because
//     a store has its data before it has an address; were that to change,
//     searchOlderStores would have to park on the producer again;
//   - no other load is on the retry list or parked; the retry list is
//     strictly ascending in seq;
//   - undonePos and branchPos are not past where a walk of the ROB finds
//     the oldest unexecuted instruction and the oldest unresolved branch,
//     so a query that steps them forward stops exactly there;
//   - when exposeScan is down and the branch frontier has nothing to catch
//     up with, the load queue holds nothing to expose.
func (c *Core) CheckParkedLoads() error {
	// polled is searchOlderStores as memMaintenance called it every cycle.
	polled := func(d *dynInst) (match *dynInst, ready, blocked bool) {
		for i := len(c.sq) - 1; i >= 0; i-- {
			s := c.sq[i]
			if s.seq >= d.seq || s.squashed {
				continue
			}
			if s.isAmo() {
				return nil, false, true
			}
			if s.phase < memTranslated {
				if !s.faulted {
					return nil, false, true
				}
				continue
			}
			if match == nil && s.effAddr == d.effAddr {
				match = s
			}
		}
		if match != nil {
			r := match.src2 == nil || match.src2.seq != match.src2Seq || match.src2.done
			return match, r, false
		}
		for i := c.storeBuf.len() - 1; i >= 0; i-- {
			if s := c.storeBuf.at(i); s.effAddr == d.effAddr {
				return s, true, false
			}
		}
		return nil, false, false
	}

	onRetry := make(map[*dynInst]bool, len(c.retry))
	var prev uint64
	for i, d := range c.retry {
		if d.seq <= prev {
			return fmt.Errorf("retry list not strictly ascending: retry[%d].seq = %d after %d", i, d.seq, prev)
		}
		prev = d.seq
		onRetry[d] = true
	}
	parkedOn := make(map[*dynInst]*dynInst)
	for _, p := range c.insts {
		for n, steps := p.parked, 0; n != 0 && steps < len(c.waitNodes); n, steps = c.waitNodes[n].next, steps+1 {
			w := c.waitNodes[n]
			d := c.insts[w.idx]
			if d.seq != w.seq {
				continue // squashed since it parked
			}
			if other := parkedOn[d]; other != nil {
				return fmt.Errorf("load seq %d is parked twice, on seq %d and seq %d", d.seq, other.seq, p.seq)
			}
			parkedOn[d] = p
		}
	}
	inSQ := func(p *dynInst) bool { return slices.Contains(c.sq, p) }
	for _, d := range c.lq {
		p := parkedOn[d]
		delete(parkedOn, d)
		retried := onRetry[d]
		delete(onRetry, d)
		if match, ready, _ := polled(d); match != nil && !ready && d.phase >= memTranslated {
			return fmt.Errorf("load seq %d matches store seq %d, whose data is not ready: a store got an address before its data",
				d.seq, match.seq)
		}
		if d.phase != memWaitingOlderStores {
			if p != nil || retried {
				return fmt.Errorf("load seq %d is in phase %d, yet parked=%v on the retry list=%v", d.seq, d.phase, p != nil, retried)
			}
			continue
		}
		switch {
		case retried && p != nil:
			return fmt.Errorf("load seq %d is both on the retry list and parked on seq %d", d.seq, p.seq)
		case retried:
			continue
		case p == nil:
			return fmt.Errorf("load seq %d waits on older stores but is neither parked nor on the retry list", d.seq)
		}
		if _, _, blocked := polled(d); !blocked {
			return fmt.Errorf("load seq %d is parked on seq %d, but a poll would find nothing blocking it", d.seq, p.seq)
		}
		if p.seq == 0 || p.squashed || (p.isAmo() && !inSQ(p)) || (!p.isAmo() && p.done) {
			return fmt.Errorf("load seq %d is parked on seq %d, which will not release it (squashed=%v done=%v amo=%v)",
				d.seq, p.seq, p.squashed, p.done, p.isAmo())
		}
	}
	for d := range onRetry {
		return fmt.Errorf("retry list holds seq %d, which is not in the load queue", d.seq)
	}
	for d, p := range parkedOn {
		return fmt.Errorf("seq %d is parked on seq %d but is not in the load queue", d.seq, p.seq)
	}

	undone, branch := c.rob.len(), c.rob.len()
	for i := c.rob.len() - 1; i >= 0; i-- {
		if d := c.rob.at(i); !d.done {
			undone = i
			if d.isBranch() {
				branch = i
			}
		}
	}
	if c.undonePos < 0 || c.undonePos > undone || c.branchPos < 0 || c.branchPos > branch {
		return fmt.Errorf("frontiers at (undone %d, branch %d) of %d are past what a walk of the ROB finds, (%d, %d)",
			c.undonePos, c.branchPos, c.rob.len(), undone, branch)
	}
	// defenseMaintenance first lets the policy's frontier catch up, which
	// raises exposeScan if it moves; with the frontier already there and
	// the flag down it will not look, so there must be nothing to find.
	pos, frontier := branch, c.branchPos
	if c.pol.safe == safeUnsquashable {
		pos, frontier = undone, c.undonePos
	}
	if c.pol.unsafe == expose && !c.exposeScan && frontier == pos {
		for _, d := range c.lq {
			// A done load is never the oldest undone instruction, so one
			// comparison serves both rules.
			safe := pos == c.rob.len() || c.rob.at(pos).seq > d.seq
			if d.needsExpose && !d.exposing && !d.exposeDone && d.done && safe {
				return fmt.Errorf("load seq %d can be exposed but exposeScan is down", d.seq)
			}
		}
	}
	return nil
}

// coreImage is everything about a core that a tick could change: the Core
// struct itself, by value, and the contents of what it points to.
type coreImage struct {
	core                      Core
	insts                     []dynInst
	nodes                     []waitNode
	rob, storeBuf             []*dynInst
	lq, sq, ready, retry      []*dynInst
	free                      []int32
	pending, footprint, snaps int
}

// maskedCore is the Core struct by value without what is not simulated
// state: funcs (which never compare equal) and the two host-side counters.
func maskedCore(c *Core) Core {
	m := *c
	m.drainDone, m.amoDone, m.OnSyscall = nil, nil, nil
	m.ticksRun, m.retriesParked = 0, 0
	return m
}

// take fills the image from c, reusing the image's buffers.
func (img *coreImage) take(c *Core) {
	img.core = maskedCore(c)
	img.insts = img.insts[:0]
	for _, d := range c.insts {
		img.insts = append(img.insts, *d)
	}
	img.nodes = append(img.nodes[:0], c.waitNodes...)
	img.rob = append(img.rob[:0], c.rob.buf...)
	img.storeBuf = append(img.storeBuf[:0], c.storeBuf.buf...)
	img.lq = append(img.lq[:0], c.lq...)
	img.sq = append(img.sq[:0], c.sq...)
	img.ready = append(img.ready[:0], c.ready...)
	img.retry = append(img.retry[:0], c.retry...)
	img.free = append(img.free[:0], c.freeList...)
	img.pending = c.sched.Pending()
	img.footprint = len(c.sbData) + len(c.sbCode)
	img.snaps = len(c.snapFree)
}

// diff names the first thing about c that is not as the image recorded it,
// or returns "" when nothing changed.
func (img *coreImage) diff(c *Core) string {
	// The Core struct holds slices, maps and funcs, so only reflection can
	// compare it field by field. That is the slow path: two copies of an
	// unchanged struct are the same bytes (slice headers included — a tick
	// that appended or re-sliced shows here, one that wrote through shows
	// below), and then there is nothing to ask reflection.
	now := maskedCore(c)
	if raw := func(m *Core) []byte { return unsafe.Slice((*byte)(unsafe.Pointer(m)), unsafe.Sizeof(*m)) }; !bytes.Equal(raw(&img.core), raw(&now)) {
		bv, av := reflect.ValueOf(img.core), reflect.ValueOf(now)
		for i := 0; i < bv.NumField(); i++ {
			if !reflect.DeepEqual(bv.Field(i).Interface(), av.Field(i).Interface()) {
				return "Core." + bv.Type().Field(i).Name
			}
		}
	}
	if len(c.insts) != len(img.insts) {
		return "the size of the instruction pool"
	}
	for i, d := range c.insts {
		if img.insts[i] != *d {
			return fmt.Sprintf("the instruction in pool slot %d (seq %d)", i, img.insts[i].seq)
		}
	}
	switch {
	case !slices.Equal(img.nodes, c.waitNodes):
		return "a waiter or parked-load chain"
	case !slices.Equal(img.rob, c.rob.buf), !slices.Equal(img.storeBuf, c.storeBuf.buf):
		return "the ROB or the store buffer"
	case !slices.Equal(img.lq, c.lq), !slices.Equal(img.sq, c.sq):
		return "the load or store queue"
	case !slices.Equal(img.ready, c.ready), !slices.Equal(img.retry, c.retry):
		return "the ready or retry list"
	case !slices.Equal(img.free, c.freeList), img.snaps != len(c.snapFree):
		return "a free list"
	case img.footprint != len(c.sbData)+len(c.sbCode):
		return "the SafeBet footprint"
	case img.pending != c.sched.Pending():
		return fmt.Sprintf("the number of pending events (%d, now %d)", img.pending, c.sched.Pending())
	}
	return ""
}

// Asleep reports whether the core would skip its next Tick.
func (c *Core) Asleep() bool { return c.sched.Now() < c.wakeAt }

// SleeperCheck is the oracle for the sleep rule: a core that is asleep is
// ticked anyway, and the tick must change nothing — no field of the core
// (counters and the wake-up time included), no instruction, no queue, no
// chain, and not the number of pending events. The value only holds the
// image's buffers, so that checking every cycle does not allocate them
// every cycle.
type SleeperCheck struct{ before coreImage }

// Check runs the oracle on c and reports whether c was asleep.
func (k *SleeperCheck) Check(c *Core) (asleep bool, err error) {
	if !c.Asleep() {
		return false, nil
	}
	k.before.take(c)
	c.tick()
	if what := k.before.diff(c); what != "" {
		return true, fmt.Errorf("ticking the sleeping core changed %s", what)
	}
	return true, nil
}

// TicksRun is the number of Ticks the core executed rather than slept
// through; RetriesParked the memMaintenance retries that found their load
// blocked again.
func (c *Core) TicksRun() uint64      { return c.ticksRun }
func (c *Core) RetriesParked() uint64 { return c.retriesParked }

// WaitingLoads counts the load queue entries in memWaitingOlderStores: what
// the polled memMaintenance would have retried this cycle.
func (c *Core) WaitingLoads() (n int) {
	for _, d := range c.lq {
		if d.phase == memWaitingOlderStores {
			n++
		}
	}
	return n
}

// ParkedKinds counts the live parked loads by what they wait for: an older
// store whose address is unknown, or an older AMO.
func (c *Core) ParkedKinds() (onStore, onAmo int) {
	for _, p := range c.insts {
		for n, steps := p.parked, 0; n != 0 && steps < len(c.waitNodes); n, steps = c.waitNodes[n].next, steps+1 {
			if w := c.waitNodes[n]; c.insts[w.idx].seq != w.seq {
				continue
			}
			if p.isAmo() {
				onAmo++
			} else {
				onStore++
			}
		}
	}
	return
}

// HeadAmo reports whether the ROB head is an AMO and, if so, whether it
// has started (its translation or its drain is in flight) and not yet
// completed.
func (c *Core) HeadAmo() (amo, inFlight bool) {
	if c.rob.len() == 0 {
		return false, false
	}
	d := c.rob.at(0)
	return d.isAmo(), d.isAmo() && d.phase != memIdle && !d.done
}

// RetryListLen is the number of loads memMaintenance will retry next cycle.
func (c *Core) RetryListLen() int { return len(c.retry) }

// PolicyRow is one row of the speculation-policy table as tests see it.
// Used rows are the ones a Defense resolves to; the others combine a
// safe-when rule and an unsafe action that no scheme does, named after the
// scheme whose action they borrow (a Spectre variant is safe once older
// branches resolve, a Future one once the load is unsquashable).
type PolicyRow struct {
	Name string
	Used bool
	pol  policy
}

// PolicyRows returns the table's rows, in Defense order, followed by the
// test-only rows.
func PolicyRows() []PolicyRow {
	var rows []PolicyRow
	for _, d := range defenses {
		rows = append(rows, PolicyRow{d.name, true, d.pol})
	}
	return append(rows,
		PolicyRow{"safebet-future", false, policy{safeUnsquashable, footprint}},
		PolicyRow{"invisispec-spectre-validate", false, policy{safeBranches, validate}},
		PolicyRow{"invisispec-future-expose", false, policy{safeUnsquashable, expose}},
	)
}

// SetPolicy puts the core under a row's policy in place of the one NewCore
// resolved from its Defense. Call it before the core runs.
func (c *Core) SetPolicy(r PolicyRow) { c.pol = r.pol }
