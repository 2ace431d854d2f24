package event

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Test event ops: opLog records the firing; opChain records it and
// schedules an opLog event at cycle a2 carrying a1+1.
const (
	opLog int32 = iota
	opChain
)

// firing is one HandleEvent call as the recorder saw it.
type firing struct {
	at     Cycle
	op     int32
	a1, a2 uint64
}

// recorder logs every event it handles, in firing order.
type recorder struct {
	s     *Scheduler
	fired []firing
}

func (r *recorder) HandleEvent(op int32, a1, a2 uint64) {
	r.fired = append(r.fired, firing{r.s.Now(), op, a1, a2})
	if op == opChain {
		r.s.AtEvent(Cycle(a2), r, opLog, a1+1, 0)
	}
}

// cycles lists the cycles at which the recorded events fired.
func (r *recorder) cycles() []Cycle {
	var at []Cycle
	for _, f := range r.fired {
		at = append(at, f.at)
	}
	return at
}

func TestSchedulerStartsAtZero(t *testing.T) {
	s := NewScheduler()
	if s.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestTickAdvancesClock(t *testing.T) {
	s := NewScheduler()
	for i := 1; i <= 10; i++ {
		s.Tick()
		if got := s.Now(); got != Cycle(i) {
			t.Fatalf("after %d ticks Now() = %d", i, got)
		}
	}
}

func TestEventFiresAtScheduledCycle(t *testing.T) {
	s := NewScheduler()
	r := &recorder{s: s}
	s.AtEvent(5, r, opLog, 7, 9)
	for i := 0; i < 10; i++ {
		s.Tick()
	}
	if want := []firing{{5, opLog, 7, 9}}; !slices.Equal(r.fired, want) {
		t.Fatalf("fired %v, want %v (the event's own op and args at cycle 5)", r.fired, want)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := NewScheduler()
	r := &recorder{s: s}
	s.Tick()
	s.Tick() // now = 2
	s.AfterEvent(3, r, opLog, 0, 0)
	for i := 0; i < 10; i++ {
		s.Tick()
	}
	if got := r.cycles(); !slices.Equal(got, []Cycle{5}) {
		t.Fatalf("event fired at %v, want [5]", got)
	}
}

func TestSameCycleEventsFireInScheduleOrder(t *testing.T) {
	s := NewScheduler()
	r := &recorder{s: s}
	for i := 0; i < 5; i++ {
		s.AtEvent(3, r, opLog, uint64(i), 0)
	}
	for i := 0; i < 5; i++ {
		s.Tick()
	}
	if len(r.fired) != 5 {
		t.Fatalf("%d events fired, want 5", len(r.fired))
	}
	for i, f := range r.fired {
		if f.a1 != uint64(i) {
			t.Fatalf("fired %v, want ascending a1", r.fired)
		}
	}
}

func TestPastEventFiresOnNextTick(t *testing.T) {
	s := NewScheduler()
	r := &recorder{s: s}
	for i := 0; i < 5; i++ {
		s.Tick()
	}
	s.AtEvent(2, r, opLog, 0, 0) // in the past
	s.Tick()
	if got := r.cycles(); !slices.Equal(got, []Cycle{6}) {
		t.Fatalf("past event fired at %v, want [6]", got)
	}
}

func TestEventChainingSameCycle(t *testing.T) {
	s := NewScheduler()
	r := &recorder{s: s}
	s.AtEvent(1, r, opChain, 0, 1) // schedules a same-cycle event that must run this tick
	s.Tick()
	if want := []firing{{1, opChain, 0, 1}, {1, opLog, 1, 0}}; !slices.Equal(r.fired, want) {
		t.Fatalf("fired %v, want %v (chained same-cycle event)", r.fired, want)
	}
}

func TestRunDueDoesNotAdvance(t *testing.T) {
	s := NewScheduler()
	r := &recorder{s: s}
	s.AtEvent(0, r, opLog, 0, 0)
	s.RunDue()
	if len(r.fired) != 1 {
		t.Fatal("due event did not run")
	}
	if s.Now() != 0 {
		t.Fatalf("RunDue advanced clock to %d", s.Now())
	}
}

func TestAdvanceToRunsInterveningEvents(t *testing.T) {
	s := NewScheduler()
	r := &recorder{s: s}
	for _, c := range []Cycle{3, 7, 12, 20} {
		s.AtEvent(c, r, opLog, 0, 0)
	}
	s.AdvanceTo(15)
	if s.Now() != 15 {
		t.Fatalf("Now() = %d, want 15", s.Now())
	}
	if fired, want := r.cycles(), []Cycle{3, 7, 12}; !slices.Equal(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
}

func TestAdvanceToEmptyQueue(t *testing.T) {
	s := NewScheduler()
	s.AdvanceTo(100)
	if s.Now() != 100 {
		t.Fatalf("Now() = %d, want 100", s.Now())
	}
}

// Property: regardless of insertion order, events fire in nondecreasing
// time order, with ties broken by insertion order.
func TestEventOrderingProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		r := &recorder{s: s}
		count := int(n%64) + 1
		for i := 0; i < count; i++ {
			s.AtEvent(Cycle(rng.Intn(50)), r, opLog, uint64(i), 0)
		}
		s.AdvanceTo(60)
		fired := r.fired
		if len(fired) != count {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].a1 < fired[i-1].a1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// nextEventTimeByScan is the definition nextEventTime replaced: look at
// every ring bucket.
func nextEventTimeByScan(s *Scheduler) (Cycle, bool) {
	var next Cycle
	have := false
	take := func(w Cycle) {
		if !have || w < next {
			next, have = w, true
		}
	}
	if len(s.overdue) > 0 {
		take(s.overdue[0].when)
	}
	if len(s.heap) > 0 {
		take(s.heap[0].when)
	}
	for i := range s.buckets {
		if b := &s.buckets[i]; len(b.items) > 0 {
			take(b.when)
		}
	}
	return next, have
}

// lateness is the handler of TestNextEventTimeMatchesBucketScan: an event
// carries its cycle<<1 | overdue in a1 and its chain length in a2, counts
// itself late when it fires at another cycle (an event scheduled for the
// current cycle outside a drain is overdue by design and fires with the
// next drain), and schedules the rest of its chain at a random cycle
// ahead.
type lateness struct {
	s    *Scheduler
	rng  *rand.Rand
	late int
}

func (l *lateness) at(when Cycle, chain int) {
	overdue := uint64(0)
	if when <= l.s.Now() && !l.s.inDrain {
		overdue = 1
	}
	l.s.AtEvent(when, l, opLog, uint64(when)<<1|overdue, uint64(chain))
}

func (l *lateness) HandleEvent(_ int32, a1, a2 uint64) {
	if l.s.Now() != Cycle(a1>>1) && a1&1 == 0 {
		l.late++
	}
	if a2 > 0 {
		l.at(l.s.Now()+Cycle(l.rng.Intn(80)), int(a2)-1)
	}
}

// Property: over random schedule / Tick / AdvanceTo / TickOrSkipTo
// sequences — including events that schedule more events while a drain is
// running — the occupancy word always names exactly the non-empty buckets,
// nextEventTime agrees with the brute-force scan, every event fires at its
// own cycle, and a skip never passes one.
func TestNextEventTimeMatchesBucketScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		l := &lateness{s: s, rng: rng}
		at := l.at
		check := func() bool {
			var occ uint64
			for i := range s.buckets {
				if len(s.buckets[i].items) > 0 {
					occ |= 1 << i
				}
			}
			gn, gok := s.nextEventTime()
			wn, wok := nextEventTimeByScan(s)
			return occ == s.occupied && gok == wok && gn == wn && l.late == 0
		}
		for step := 0; step < 400; step++ {
			switch rng.Intn(6) {
			case 0, 1:
				for k := rng.Intn(4); k >= 0; k-- {
					at(s.Now()+Cycle(rng.Intn(200)), rng.Intn(3))
				}
			case 2:
				s.Tick()
			case 3:
				s.AdvanceTo(s.Now() + Cycle(rng.Intn(150)))
			case 4:
				before := s.Now()
				limit := before + Cycle(rng.Intn(150))
				next, ok := s.nextEventTime()
				s.TickOrSkipTo(limit)
				switch {
				case ok && next <= before+1 || limit <= before+1:
					if s.Now() != before+1 {
						return false
					}
				case ok && next <= limit:
					if s.Now() != next-1 {
						return false
					}
				default:
					if s.Now() != limit {
						return false
					}
				}
			case 5:
				s.RunDue()
			}
			if !check() {
				return false
			}
		}
		s.AdvanceTo(s.Now() + 1000)
		return check() && s.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTickOrSkipToStopsBeforeTheNextEvent(t *testing.T) {
	s := NewScheduler()
	r := &recorder{s: s}
	s.AtEvent(10, r, opLog, 0, 0)
	s.AtEvent(200, r, opLog, 0, 0) // beyond the ring: heap
	s.TickOrSkipTo(50)
	if s.Now() != 9 || len(r.fired) != 0 {
		t.Fatalf("after skipping towards 50: now %d, fired %v; want now 9 and nothing fired", s.Now(), r.cycles())
	}
	s.TickOrSkipTo(50) // the event is due next cycle: a plain Tick
	if s.Now() != 10 || len(r.fired) != 1 || r.fired[0].at != 10 {
		t.Fatalf("now %d, fired %v; want the event to fire at 10", s.Now(), r.cycles())
	}
	s.TickOrSkipTo(50)
	if s.Now() != 50 {
		t.Fatalf("now %d, want the limit 50", s.Now())
	}
	s.TickOrSkipTo(40) // a limit in the past is a plain Tick, never a step back
	if s.Now() != 51 {
		t.Fatalf("now %d, want 51", s.Now())
	}
	s.TickOrSkipTo(1 << 40)
	if s.Now() != 199 {
		t.Fatalf("now %d, want 199 (the cycle before the heap event)", s.Now())
	}
	s.Tick()
	if len(r.fired) != 2 || r.fired[1].at != 200 {
		t.Fatalf("fired %v, want the heap event at 200", r.cycles())
	}
}

// TestDueSourcesMergeInWhenSeqOrder: one drain takes an overdue event, a
// heap event and two ring events, and fires them in (when, seq) order —
// the overdue one first because its cycle is earlier, then the rest in
// the order they were scheduled whatever queue holds them.
func TestDueSourcesMergeInWhenSeqOrder(t *testing.T) {
	s := NewScheduler()
	r := &recorder{s: s}
	s.AtEvent(100, r, opLog, 1, 0) // heap: 100 cycles out
	s.AdvanceTo(50)
	s.AtEvent(100, r, opLog, 2, 0) // ring
	s.AdvanceTo(99)
	s.RunDue()
	s.AtEvent(99, r, opLog, 0, 0)  // overdue: the cycle's drain already ran
	s.AtEvent(100, r, opLog, 3, 0) // ring
	s.Tick()
	want := []firing{{100, opLog, 0, 0}, {100, opLog, 1, 0}, {100, opLog, 2, 0}, {100, opLog, 3, 0}}
	if !slices.Equal(r.fired, want) {
		t.Fatalf("fired %v, want %v", r.fired, want)
	}
}
