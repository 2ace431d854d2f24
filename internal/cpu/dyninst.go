package cpu

import (
	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/recycle"
)

// memPhase tracks a memory instruction's progress through its multi-step
// execution (address generation, translation, disambiguation, access).
type memPhase uint8

const (
	memIdle memPhase = iota
	memAgenDone
	memTranslated
	memWaitingOlderStores
	memAccessIssued
	memNACKed // refused by coherence; reissue when oldest
	memDone
)

// dynInst is one in-flight dynamic instruction. Instances live in the
// core's fixed pool and are recycled after commit or squash; every
// reference that can outlive the instruction (rename entries, producer
// links, scheduled events) therefore carries the instruction's seq and
// validates it before use — a recycled slot has a different seq.
type dynInst struct {
	idx int32  // pool slot; fixed for the slot's lifetime
	seq uint64 // globally unique dispatch sequence number; 0 = free slot

	pc uint64
	si *isa.StaticInst

	// Predicted next fetch PC recorded at fetch; branches compare the
	// resolved target against it.
	predNext uint64
	pred     bpred.Prediction
	hasPred  bool
	// checkpoint is the rename-map snapshot for squash recovery, taken
	// for every instruction that can mispredict. Pooled; returned on free.
	checkpoint *renameSnap

	// Dataflow. Producers are referenced by (pointer, seq); a seq mismatch
	// means the producer committed and was recycled, in which case its
	// value is in the architectural register file (in-order commit
	// guarantees no younger writer has committed while this consumer is in
	// flight).
	src1, src2       *dynInst
	src1Seq, src2Seq uint64
	use1, use2       bool
	v1, v2           uint64
	v1Ready, v2Ready bool
	result           uint64
	writesReg        bool
	destReg          isa.Reg

	// Pipeline state.
	readyCycle uint64 // earliest issue cycle (frontend delay)
	inIQ       bool   // holds an issue-queue slot: dispatched into it, not yet issued
	done       bool   // set only by Core.complete, which also wakes the waiters
	squashed   bool
	// waiters heads the chain of issue-queue entries parked on this
	// instruction's result (a waitNode slab index; 0 = none). See wakeWaiters.
	// parked heads the chain of loads that cannot access memory until this
	// instruction lets them: an older store whose address they must be
	// compared with, or an older AMO. See unpark.
	waiters int32
	parked  int32
	// pins counts outstanding closure references (InvisiSpec exposures)
	// that captured the pointer directly; a pinned instruction's slot is
	// not recycled until the pins drain. retired marks a freed-but-pinned
	// slot awaiting its last unpin.
	pins    int32
	retired bool

	// Memory state.
	phase      memPhase
	effAddr    uint64
	paddr      mem.Addr
	faulted    bool
	walked     bool   // translation required a page-table walk
	forwarded  bool   // value obtained by store-to-load forwarding
	prefetched bool   // store prefetch issued (MuonTrap)
	fwdVal     uint64 // forwarded store data, captured when the bypass fires

	// InvisiSpec.
	needsExpose bool // executed invisibly; must replay when safe
	exposing    bool
	exposeDone  bool

	// STT: the unsafe load this instruction's result transitively depends
	// on (nil when untainted). Lazily untainted by checking the root's
	// safety — or its recycling, which implies commit — at use time.
	taintRoot *dynInst
	taintSeq  uint64

	// Off-program-text or fault marker for synthesized halts.
	synthetic bool
}

func (d *dynInst) isLoad() bool   { return d.si.IsLoad }
func (d *dynInst) isStore() bool  { return d.si.IsStore }
func (d *dynInst) isAmo() bool    { return d.si.IsAmo }
func (d *dynInst) isBranch() bool { return d.si.IsBranch }

// renameSnap is a pooled rename-map checkpoint: the architectural-register
// producer map plus the seqs that validate its entries at restore time.
type renameSnap struct {
	ptr [isa.NumRegs]*dynInst
	seq [isa.NumRegs]uint64
}

// --- dynInst pool ---

// poolChunk is the pool growth quantum. The steady-state population is
// bounded by the ROB plus the store buffer plus in-flight exposures, so
// growth stops almost immediately. snapChunk is the renameSnap quantum.
const (
	poolChunk = 64
	snapChunk = 16
)

// The instruction window's chunks and the rename snapshots are borrowed
// from these and handed back by Core.Release.
var (
	instPool recycle.Pool[dynInst]
	snapPool recycle.Pool[renameSnap]
)

func (c *Core) growPool() {
	chunk := instPool.Get(poolChunk)
	c.instChunks = append(c.instChunks, chunk)
	for i := range chunk {
		d := &chunk[i]
		d.idx = int32(len(c.insts))
		c.insts = append(c.insts, d)
		c.freeList = append(c.freeList, d.idx)
	}
}

// allocInst takes a free slot, resets it and assigns a fresh seq.
func (c *Core) allocInst() *dynInst {
	if len(c.freeList) == 0 {
		c.growPool()
	}
	idx := c.freeList[len(c.freeList)-1]
	c.freeList = c.freeList[:len(c.freeList)-1]
	d := c.insts[idx]
	*d = dynInst{idx: idx}
	c.seq++
	d.seq = c.seq
	return d
}

// freeInst retires a slot after the instruction left the ROB (commit or
// squash) and the store buffer. The seq is invalidated immediately so every
// (pointer, seq) reference detects staleness; the slot itself is withheld
// from reuse while closure pins remain.
func (c *Core) freeInst(d *dynInst) {
	if d.seq == 0 {
		panic("cpu: double free of dynInst slot")
	}
	d.seq = 0
	if d.checkpoint != nil {
		c.snapFree = append(c.snapFree, d.checkpoint)
		d.checkpoint = nil
	}
	// Consumers and loads still parked here (the producer never completed,
	// or faulted) are squashed with it; their nodes go back to the slab.
	c.releaseChain(&d.waiters)
	c.releaseChain(&d.parked)
	if d.pins > 0 {
		d.retired = true
		return
	}
	c.freeList = append(c.freeList, d.idx)
}

// unpin releases one closure reference, recycling the slot if the
// instruction was already freed.
func (c *Core) unpin(d *dynInst) {
	d.pins--
	if d.retired && d.pins == 0 {
		d.retired = false
		c.freeList = append(c.freeList, d.idx)
	}
}

// inst resolves a scheduled event's (pool index, seq) pair, returning nil
// for events whose instruction was squashed or recycled since scheduling.
func (c *Core) inst(a1, a2 uint64) *dynInst {
	d := c.insts[int32(uint32(a1))]
	if d.seq != a2 || d.squashed {
		return nil
	}
	return d
}

// allocSnap checkpoints the current rename map from the pool.
func (c *Core) allocSnap() *renameSnap {
	if len(c.snapFree) == 0 {
		chunk := snapPool.Get(snapChunk)
		c.snapChunks = append(c.snapChunks, chunk)
		for i := range chunk {
			c.snapFree = append(c.snapFree, &chunk[i])
		}
	}
	s := c.snapFree[len(c.snapFree)-1]
	c.snapFree = c.snapFree[:len(c.snapFree)-1]
	s.ptr = c.rename
	s.seq = c.renameSeq
	return s
}

// --- Wake-up: producers hand their result to the consumers parked on them ---

// waitNode is one link of a chain of instructions parked on another (its
// waiters or its parked loads): a (pool idx, seq) reference to the parked
// instruction, validated at wake-up like every other cross-instruction
// reference. Nodes live in a per-core slab (slot 0 is the nil link) and
// free nodes are threaded through next.
type waitNode struct {
	idx, next int32
	seq       uint64
}

// link pushes a reference to d on the chain headed by *head.
func (c *Core) link(head *int32, d *dynInst) {
	n := c.waitFree
	if n != 0 {
		c.waitFree = c.waitNodes[n].next
	} else {
		n = int32(len(c.waitNodes))
		c.waitNodes = append(c.waitNodes, waitNode{})
	}
	c.waitNodes[n] = waitNode{idx: d.idx, next: *head, seq: d.seq}
	*head = n
}

// releaseChain returns the whole chain headed by *head to the slab.
func (c *Core) releaseChain(head *int32) {
	for n := *head; n != 0; {
		next := c.waitNodes[n].next
		c.waitNodes[n].next = c.waitFree
		c.waitFree = n
		n = next
	}
	*head = 0
}

// operandsLatched reports whether every source value d uses is in hand.
func operandsLatched(d *dynInst) bool {
	return (!d.use1 || d.v1Ready) && (!d.use2 || d.v2Ready)
}

// enterIQ gives a freshly renamed instruction its issue-queue slot. With
// every operand latched it joins the ready list (as the youngest entry it
// sorts last); otherwise it is parked on each producer it waits for — once
// when both operands name the same one — and is not looked at again until
// a producer completes.
func (c *Core) enterIQ(d *dynInst) {
	d.inIQ = true
	c.iqCount++
	wait1 := d.use1 && !d.v1Ready
	wait2 := d.use2 && !d.v2Ready
	if wait1 {
		c.link(&d.src1.waiters, d)
	}
	if wait2 && !(wait1 && d.src2 == d.src1) {
		c.link(&d.src2.waiters, d)
	}
	if !wait1 && !wait2 {
		c.ready = append(c.ready, d)
	}
}

// complete marks d executed, wakes the consumers parked on it and sends
// the loads parked on it back to be retried. It is the only writer of
// done, so a completion cannot forget either. A faulted producer never
// supplies data: post-Meltdown cores suppress fault data forwarding, so its
// dependents stay parked until the squash frees them (or until the fault
// reaches commit and halts the core). Parked loads are released fault or no
// fault — a store that faulted no longer hides an address — except by an
// AMO, which holds its loads until it commits (see commit), not until it
// completes.
func (c *Core) complete(d *dynInst) {
	d.done = true
	if !d.faulted && d.waiters != 0 {
		c.wakeWaiters(d)
	}
	if d.parked != 0 && !d.isAmo() {
		c.unpark(d)
	}
	if d.needsExpose {
		c.exposeScan = true
	}
}

// wakeWaiters latches p's result into every live consumer on its chain and
// moves those that now hold all their operands into the ready list. A producer's
// slot is recycled only after it completed (commit) or together with all
// its consumers (squash), so this is the one moment a waiting operand can
// become available, and the value latched here is the one a later read of
// p.result or of the architectural file would return. Consumers squashed
// and recycled since parking fail the seq check and drop out.
func (c *Core) wakeWaiters(p *dynInst) {
	for n := p.waiters; n != 0; n = c.waitNodes[n].next {
		w := c.waitNodes[n]
		d := c.insts[w.idx]
		if d.seq != w.seq {
			continue
		}
		if d.use1 && !d.v1Ready && d.src1 == p && d.src1Seq == p.seq {
			d.v1, d.v1Ready = p.result, true
		}
		if d.use2 && !d.v2Ready && d.src2 == p && d.src2Seq == p.seq {
			d.v2, d.v2Ready = p.result, true
		}
		if operandsLatched(d) {
			c.ready = insertBySeq(c.ready, d)
		}
	}
	c.releaseChain(&p.waiters)
}

// unpark sends every live load parked on p to the retry list: what held it
// back — p's unknown address, or p the AMO itself — is gone, so the next
// memMaintenance runs its disambiguation again. Loads squashed since they
// parked fail the seq check and drop out.
func (c *Core) unpark(p *dynInst) {
	for n := p.parked; n != 0; n = c.waitNodes[n].next {
		w := c.waitNodes[n]
		if d := c.insts[w.idx]; d.seq == w.seq {
			c.retry = insertBySeq(c.retry, d)
		}
	}
	c.releaseChain(&p.parked)
}

// insertBySeq places d in a list kept in age order (ascending seq), the
// order the issue stage and memMaintenance visit their lists in. Wake-ups
// mostly concern recent instructions, so the insertion point is searched
// from the young end.
func insertBySeq(list []*dynInst, d *dynInst) []*dynInst {
	i := len(list)
	list = append(list, d)
	for ; i > 0 && list[i-1].seq > d.seq; i-- {
		list[i] = list[i-1]
	}
	list[i] = d
	return list
}

// --- Safety frontiers ---

// The two frontiers are kept as ROB positions with one invariant each:
// every entry before undonePos has executed, and no entry before branchPos
// is an unresolved branch. done is never cleared and the ROB stays in age
// order, so the invariants survive everything but the positions shifting,
// which only retire does: it moves both one towards the head. (A squash
// cuts the ROB behind a branch that was unresolved until that very event,
// so neither frontier is beyond the cut.) A query then steps its frontier
// forward over what has completed since the last one — each entry is
// stepped over once in its life, so no query walks the ROB — and a scheme
// that never asks (the baseline, MuonTrap) pays for none of it. A frontier
// that moves may have made an invisible load safe to expose (exposeScan).

// firstUndoneSeq returns the sequence number of the oldest instruction
// that has not finished executing, or MaxUint64 when all are done.
func (c *Core) firstUndoneSeq() uint64 {
	n := c.rob.len()
	for c.undonePos < n && c.rob.at(c.undonePos).done {
		c.undonePos++
		c.exposeScan = true
	}
	if c.undonePos < n {
		return c.rob.at(c.undonePos).seq
	}
	return ^uint64(0)
}

// firstUnresolvedBranchSeq returns the sequence number of the oldest
// in-flight unresolved branch, or MaxUint64 when none.
func (c *Core) firstUnresolvedBranchSeq() uint64 {
	for n := c.rob.len(); c.branchPos < n; c.branchPos++ {
		if d := c.rob.at(c.branchPos); d.isBranch() && !d.done {
			return d.seq
		}
		c.exposeScan = true
	}
	return ^uint64(0)
}

// retire pops the ROB head. The positions behind it all move one towards
// the (new) head, the frontiers with them.
func (c *Core) retire() {
	c.rob.popFront()
	c.undonePos = max(c.undonePos-1, 0)
	c.branchPos = max(c.branchPos-1, 0)
}

// operandTaint computes the effective taint root of d's operands: the
// youngest producer-load that is still unsafe. Safe — or committed, hence
// recycled — roots untaint lazily.
func (c *Core) operandTaint(d *dynInst) (*dynInst, uint64) {
	var root *dynInst
	consider := func(s *dynInst, sSeq uint64) {
		if s == nil || s.seq != sSeq {
			return // producer committed: untainted
		}
		r, rSeq := s.taintRoot, s.taintSeq
		if s.isLoad() {
			r, rSeq = s, s.seq
		}
		if r == nil || r.seq != rSeq {
			return // root committed: safe
		}
		if !c.loadSafe(r.seq) && (root == nil || r.seq > root.seq) {
			root = r
		}
	}
	consider(d.src1, d.src1Seq)
	consider(d.src2, d.src2Seq)
	if root == nil {
		return nil, 0
	}
	return root, root.seq
}

// --- instRing: a fixed-capacity FIFO of in-flight instructions ---

// instRing backs the ROB and the store buffer: both are bounded queues that
// push at the tail and pop at the head every cycle, which a sliced-slice
// implementation turns into steady reallocation.
type instRing struct {
	buf  []*dynInst
	head int
	n    int
}

func (r *instRing) init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	r.buf = make([]*dynInst, capacity)
	r.head, r.n = 0, 0
}

func (r *instRing) len() int { return r.n }

// slot maps a position (0 ≤ i ≤ len(buf)) to its buffer index. The ROB is
// not a power of two in size, so the wrap is a compare-and-subtract rather
// than a division on every access.
func (r *instRing) slot(i int) int {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return j
}

func (r *instRing) at(i int) *dynInst { return r.buf[r.slot(i)] }

func (r *instRing) push(d *dynInst) {
	if r.n == len(r.buf) {
		// The structural size limits (ROBSize, StoreBufferSize) are
		// enforced by the pipeline; growth only happens if a test
		// configures a larger window than the ring was initialised for.
		bigger := make([]*dynInst, 2*len(r.buf))
		for i := 0; i < r.n; i++ {
			bigger[i] = r.at(i)
		}
		r.buf = bigger
		r.head = 0
	}
	r.buf[r.slot(r.n)] = d
	r.n++
}

func (r *instRing) popFront() *dynInst {
	d := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = r.slot(1)
	r.n--
	return d
}

// truncate drops every element at position n and beyond (squash recovery).
func (r *instRing) truncate(n int) {
	for i := n; i < r.n; i++ {
		r.buf[r.slot(i)] = nil
	}
	r.n = n
}

func (r *instRing) clear() { r.truncate(0) }
