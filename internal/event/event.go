package event

import (
	"math/bits"

	"repro/internal/recycle"
)

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// Handler receives the events scheduled with AtEvent/AfterEvent. The
// (op, a1, a2) tuple is opaque to the scheduler; receivers use op to select
// the action and the args to identify the target (typically a pool index
// plus a generation/sequence number for staleness checks).
type Handler interface {
	HandleEvent(op int32, a1, a2 uint64)
}

type item struct {
	when Cycle
	seq  uint64
	h    Handler
	op   int32
	a1   uint64
	a2   uint64
}

func (it *item) run() { it.h.HandleEvent(it.op, it.a1, it.a2) }

// before reports strict (when, seq) order.
func (a *item) before(b *item) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// ringSize is the near-future window: events within ringSize cycles of now
// are appended to a per-cycle bucket instead of the heap. Same-cycle and
// next-cycle completions dominate the simulator's event mix, and cache-hit
// latencies all fall inside the window; only DRAM-class latencies reach the
// heap. Must be a power of two.
const ringSize = 64

type bucket struct {
	when  Cycle
	items []item
}

// Scheduler owns the simulated clock and the pending-event queue.
// The zero value is ready to use at cycle 0; its buckets grow by append.
// NewScheduler borrows one slab that backs the first bucketCap items of
// every bucket, and Release hands it back.
type Scheduler struct {
	now Cycle
	seq uint64

	// Far-future events (≥ ringSize cycles out), ordered by (when, seq).
	heap heap4

	// Near-future events, bucketed per cycle. buckets[c&ringMask] holds
	// cycle c's events in seq order. ringCount tracks the total, and bit i
	// of occupied is set while buckets[i] holds events, so the earliest
	// bucket is one rotate and count away (see nextEventTime).
	buckets   [ringSize]bucket
	occupied  uint64
	ringCount int

	// Events scheduled at or before the current cycle after the cycle's
	// drain already ran; they fire on the next Tick/RunDue, before the
	// clock advances further. Appended in seq order.
	overdue []item

	// inDrain marks that runDue is executing: same-cycle events go to the
	// live bucket (the drain loop picks them up) instead of overdue.
	inDrain bool

	// slab is the borrowed array behind the buckets' first items (nil for
	// the zero value and after Release).
	slab []item
}

// bucketCap is how many items each bucket holds in the borrowed slab; a
// bucket that outgrows it appends into an array of its own.
const bucketCap = 16

// slabPool lends schedulers their bucket slabs.
var slabPool recycle.Pool[item]

// NewScheduler returns a scheduler starting at cycle 0, its buckets backed
// by a slab borrowed from the previous scheduler released in this process.
func NewScheduler() *Scheduler {
	s := &Scheduler{slab: slabPool.Get(ringSize * bucketCap)}
	for i := range s.buckets {
		s.buckets[i].items = s.slab[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
	}
	return s
}

// Release ends the scheduler's life: its slab goes back to be borrowed by
// the next NewScheduler, and every pending event is dropped with it. The
// clock stays where it was; a second Release does nothing.
func (s *Scheduler) Release() {
	slabPool.Put(s.slab)
	s.slab = nil
	s.buckets = [ringSize]bucket{}
	s.occupied, s.ringCount = 0, 0
	s.heap, s.overdue = nil, nil
}

// Now reports the current cycle.
func (s *Scheduler) Now() Cycle { return s.now }

// AtEvent schedules an event: at cycle c, h.HandleEvent(op, a1, a2) runs.
// Scheduling in the past or at the current cycle runs the event on the
// next Tick before the clock advances further, preserving ordering with
// already-queued same-cycle events. It never allocates in steady state
// (the Handler interface value holds a pointer receiver).
func (s *Scheduler) AtEvent(c Cycle, h Handler, op int32, a1, a2 uint64) {
	s.schedule(c, item{h: h, op: op, a1: a1, a2: a2})
}

// AfterEvent schedules an event d cycles from now.
func (s *Scheduler) AfterEvent(d Cycle, h Handler, op int32, a1, a2 uint64) {
	s.AtEvent(s.now+d, h, op, a1, a2)
}

func (s *Scheduler) schedule(c Cycle, it item) {
	if c < s.now {
		c = s.now
	}
	it.when = c
	it.seq = s.seq
	s.seq++
	switch {
	case c == s.now && !s.inDrain:
		// The current cycle's drain has already run (or not yet started,
		// at cycle 0): park the event for the next drain.
		s.overdue = append(s.overdue, it)
	case c-s.now < ringSize:
		i := int(c) & (ringSize - 1)
		b := &s.buckets[i]
		if len(b.items) == 0 {
			b.when = c
			s.occupied |= 1 << i
		}
		b.items = append(b.items, it)
		s.ringCount++
	default:
		s.heap.push(it)
	}
}

// Pending reports how many events are queued.
func (s *Scheduler) Pending() int {
	return len(s.heap) + s.ringCount + len(s.overdue)
}

// Tick advances the clock by one cycle and runs every event that is due at
// the new time, including events those events schedule for the same cycle.
func (s *Scheduler) Tick() {
	s.now++
	s.runDue()
}

// RunDue runs all events due at the current cycle without advancing time.
func (s *Scheduler) RunDue() { s.runDue() }

// runDue fires every due event in exact (when, seq) order, merging the
// three sources: overdue events (when ≤ now, lowest whens first), the
// current cycle's ring bucket, and heap events that have become due. Events
// scheduled for the current cycle while draining land in the live bucket
// and are picked up before the drain finishes.
func (s *Scheduler) runDue() {
	s.inDrain = true
	b := &s.buckets[int(s.now)&(ringSize-1)]
	oi, bi := 0, 0
	for {
		// Pick the smallest (when, seq) among the three sources. Overdue
		// events all predate (in seq) anything scheduled afterwards at the
		// same when, and carry whens ≤ now.
		const (
			srcNone = iota
			srcOverdue
			srcBucket
			srcHeap
		)
		src := srcNone
		var best *item
		if oi < len(s.overdue) {
			best, src = &s.overdue[oi], srcOverdue
		}
		if len(b.items) > bi && b.when == s.now {
			if it := &b.items[bi]; best == nil || it.before(best) {
				best, src = it, srcBucket
			}
		}
		if len(s.heap) > 0 && s.heap[0].when <= s.now {
			if it := &s.heap[0]; best == nil || it.before(best) {
				best, src = it, srcHeap
			}
		}
		switch src {
		case srcNone:
			s.finishDrain(b, oi, bi)
			return
		case srcHeap:
			it := s.heap.pop()
			it.run()
		default:
			if src == srcOverdue {
				oi++
			} else {
				bi++
				s.ringCount--
			}
			// best points into a slice that may be appended to (and thus
			// reallocated) by the event itself; copy before running.
			it := *best
			it.run()
		}
	}
}

// finishDrain resets the consumed sources after a drain completes. The
// overdue list and the current cycle's bucket are always fully consumed;
// clearing zeroes the retained backing arrays so fired handlers are not
// kept alive.
func (s *Scheduler) finishDrain(b *bucket, oi, bi int) {
	if oi > 0 {
		clear(s.overdue[:oi])
		s.overdue = s.overdue[:0]
	}
	if bi > 0 || b.when == s.now {
		clear(b.items)
		b.items = b.items[:0]
		s.occupied &^= 1 << (int(s.now) & (ringSize - 1))
	}
	s.inDrain = false
}

// nextEventTime reports the earliest pending event's cycle.
func (s *Scheduler) nextEventTime() (Cycle, bool) {
	var next Cycle
	have := false
	if len(s.overdue) > 0 {
		next, have = s.overdue[0].when, true
	}
	if len(s.heap) > 0 && (!have || s.heap[0].when < next) {
		next, have = s.heap[0].when, true
	}
	if s.occupied != 0 {
		// Every occupied bucket holds a cycle in [now, now+ringSize), so
		// the earliest is the first set bit at or after now's own slot.
		at := int(s.now) & (ringSize - 1)
		i := (at + bits.TrailingZeros64(bits.RotateLeft64(s.occupied, -at))) & (ringSize - 1)
		if w := s.buckets[i].when; !have || w < next {
			next, have = w, true
		}
	}
	return next, have
}

// TickOrSkipTo is Tick for a caller that has nothing of its own to do
// before cycle limit. When an event is due next cycle it is exactly Tick.
// When none is, nothing can happen until the next event, so the clock
// moves straight to limit — or to the cycle before the next event, if that
// comes first, so that the Tick which follows fires it on time. The clock
// never moves backwards and never passes an event.
func (s *Scheduler) TickOrSkipTo(limit Cycle) {
	if limit > s.now+1 {
		if next, ok := s.nextEventTime(); ok && next <= limit {
			limit = max(next, 1) - 1
		}
	}
	if limit <= s.now+1 {
		s.Tick()
		return
	}
	s.now = limit
}

// AdvanceTo moves the clock forward to cycle c, firing events in order.
// It is used by fast-forward paths; c earlier than now is a no-op.
func (s *Scheduler) AdvanceTo(c Cycle) {
	for s.now < c {
		next, ok := s.nextEventTime()
		if !ok || next > c {
			s.now = c
			return
		}
		if next > s.now {
			s.now = next
		}
		s.runDue()
	}
}

// --- 4-ary min-heap of items, ordered by (when, seq) ---

// A 4-ary heap halves the tree depth of a binary heap, trading slightly
// more comparisons per level for fewer cache-missing levels — a consistent
// win for event queues whose pops dominate.
type heap4 []item

func (h *heap4) push(it item) {
	*h = append(*h, it)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *heap4) pop() item {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = item{}
	q = q[:n]
	*h = q
	// Sift down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for k := first + 1; k < last; k++ {
			if q[k].before(&q[min]) {
				min = k
			}
		}
		if !q[min].before(&q[i]) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}
