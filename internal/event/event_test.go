package event

import (
	"math/rand"
	"testing"
	"testing/quick"
)

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
	fired := Cycle(0)
	s.At(5, func() { fired = s.Now() })
	for i := 0; i < 10; i++ {
		s.Tick()
	}
	if fired != 5 {
		t.Fatalf("event fired at %d, want 5", fired)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := NewScheduler()
	s.Tick()
	s.Tick() // now = 2
	var fired Cycle
	s.After(3, func() { fired = s.Now() })
	for i := 0; i < 10; i++ {
		s.Tick()
	}
	if fired != 5 {
		t.Fatalf("event fired at %d, want 5", fired)
	}
}

func TestSameCycleEventsFireInScheduleOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(3, func() { order = append(order, i) })
	}
	for i := 0; i < 5; i++ {
		s.Tick()
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestPastEventFiresOnNextTick(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.Tick()
	}
	fired := Cycle(0)
	s.At(2, func() { fired = s.Now() }) // in the past
	s.Tick()
	if fired != 6 {
		t.Fatalf("past event fired at %d, want 6", fired)
	}
}

func TestEventChainingSameCycle(t *testing.T) {
	s := NewScheduler()
	count := 0
	s.At(1, func() {
		count++
		s.At(1, func() { count++ }) // same-cycle chain must run this tick
	})
	s.Tick()
	if count != 2 {
		t.Fatalf("count = %d, want 2 (chained same-cycle event)", count)
	}
}

func TestRunDueDoesNotAdvance(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.At(0, func() { ran = true })
	s.RunDue()
	if !ran {
		t.Fatal("due event did not run")
	}
	if s.Now() != 0 {
		t.Fatalf("RunDue advanced clock to %d", s.Now())
	}
}

func TestAdvanceToRunsInterveningEvents(t *testing.T) {
	s := NewScheduler()
	var fired []Cycle
	for _, c := range []Cycle{3, 7, 12, 20} {
		c := c
		s.At(c, func() { fired = append(fired, s.Now()) })
	}
	s.AdvanceTo(15)
	if s.Now() != 15 {
		t.Fatalf("Now() = %d, want 15", s.Now())
	}
	want := []Cycle{3, 7, 12}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
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
		count := int(n%64) + 1
		type rec struct {
			when Cycle
			seq  int
		}
		var fired []rec
		for i := 0; i < count; i++ {
			when := Cycle(rng.Intn(50))
			i := i
			s.At(when, func() { fired = append(fired, rec{s.Now(), i}) })
		}
		s.AdvanceTo(60)
		if len(fired) != count {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].when < fired[i-1].when {
				return false
			}
			if fired[i].when == fired[i-1].when && fired[i].seq < fired[i-1].seq {
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

// Property: over random schedule / Tick / AdvanceTo / TickOrSkipTo
// sequences — including events that schedule more events while a drain is
// running — the occupancy word always names exactly the non-empty buckets,
// nextEventTime agrees with the brute-force scan, every event fires at its
// own cycle, and a skip never passes one.
func TestNextEventTimeMatchesBucketScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		late := 0
		var at func(Cycle, int)
		at = func(when Cycle, chain int) {
			// An event scheduled for the current cycle outside a drain is
			// overdue by design and fires with the next drain; every other
			// event must fire at exactly its own cycle.
			overdue := when <= s.Now() && !s.inDrain
			s.At(when, func() {
				if s.Now() != when && !overdue {
					late++
				}
				if chain > 0 {
					at(s.Now()+Cycle(rng.Intn(80)), chain-1)
				}
			})
		}
		check := func() bool {
			var occ uint64
			for i := range s.buckets {
				if len(s.buckets[i].items) > 0 {
					occ |= 1 << i
				}
			}
			gn, gok := s.nextEventTime()
			wn, wok := nextEventTimeByScan(s)
			return occ == s.occupied && gok == wok && gn == wn && late == 0
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
	var fired []Cycle
	s.At(10, func() { fired = append(fired, s.Now()) })
	s.At(200, func() { fired = append(fired, s.Now()) }) // beyond the ring: heap
	s.TickOrSkipTo(50)
	if s.Now() != 9 || len(fired) != 0 {
		t.Fatalf("after skipping towards 50: now %d, fired %v; want now 9 and nothing fired", s.Now(), fired)
	}
	s.TickOrSkipTo(50) // the event is due next cycle: a plain Tick
	if s.Now() != 10 || len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("now %d, fired %v; want the event to fire at 10", s.Now(), fired)
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
	if len(fired) != 2 || fired[1] != 200 {
		t.Fatalf("fired %v, want the heap event at 200", fired)
	}
}
