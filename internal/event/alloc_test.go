package event

import "testing"

// handlerSink records typed-event deliveries for the alloc/churn tests.
type handlerSink struct{ count int }

func (h *handlerSink) HandleEvent(op int32, a1, a2 uint64) { h.count++ }

// TestSchedulerSteadyStateZeroAlloc pins the tentpole property: once the
// ring buckets and heap have warmed, scheduling and ticking allocates
// nothing, on every path an event can take: the overdue list, the ring
// and the heap.
func TestSchedulerSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler()
	h := &handlerSink{}

	// Warm up: populate bucket and heap backing arrays.
	for i := 0; i < 1000; i++ {
		s.AfterEvent(Cycle(i%70), h, 0, 0, 0)
		s.AfterEvent(Cycle(i%200), h, 1, 0, 0)
		s.Tick()
	}
	for s.Pending() > 0 {
		s.Tick()
	}
	h.count = 0

	allocs := testing.AllocsPerRun(200, func() {
		s.AfterEvent(1, h, 0, 0, 0)   // next-cycle ring bucket
		s.AfterEvent(40, h, 0, 0, 0)  // near-future ring bucket
		s.AfterEvent(3, h, 1, 1, 2)   // ring event with arguments
		s.AfterEvent(150, h, 2, 3, 4) // heap event
		s.AfterEvent(0, h, 0, 0, 0)   // overdue path
		s.Tick()
	})
	if allocs != 0 {
		t.Fatalf("steady-state scheduler allocates %.1f per tick, want 0", allocs)
	}
	if h.count == 0 {
		t.Fatal("events did not fire")
	}
}

// BenchmarkSchedulerChurn measures raw queue throughput with the
// simulator's characteristic mix: mostly near-future events plus a DRAM
// tail that reaches the heap.
func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	h := &handlerSink{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AfterEvent(1, h, 0, 0, 0)
		s.AfterEvent(2, h, 0, 0, 0)
		s.AfterEvent(14, h, 0, 0, 0)
		if i%8 == 0 {
			s.AfterEvent(180, h, 0, 0, 0) // DRAM-class latency: heap path
		}
		s.Tick()
	}
	for s.Pending() > 0 {
		s.Tick()
	}
	if h.count == 0 {
		b.Fatal("no events fired")
	}
}
