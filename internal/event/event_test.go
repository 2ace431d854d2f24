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
