package sim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/workload"
)

// busyMachine builds a 1-core hmmer machine and steps it into the middle
// of detailed simulation, leaving pipeline state and events in flight.
func busyMachine(t *testing.T) *System {
	t.Helper()
	spec, ok := workload.ByName("hmmer")
	if !ok {
		t.Fatal("hmmer workload missing")
	}
	s := New(DefaultConfig(1))
	p := s.NewProcess(workload.Build(spec, 0.05))
	s.RunOn(0, p, 0)
	s.Step(500)
	if s.Quiesced() == nil {
		t.Fatal("test premise broken: machine quiesced after 500 cycles")
	}
	return s
}

var busySink bool

// TestQuietOnBusySystemZeroAlloc walks a real drain cycle by cycle and
// checks, at every cycle the machine still holds something, that the
// predicate the drain loop polls does not allocate. A 1-core drain is
// held by the scheduler throughout; the core and memory-system arms read
// Core.Quiet and Hierarchy.Quiet, whose busy cases are pinned at 0
// allocations in their own packages.
func TestQuietOnBusySystemZeroAlloc(t *testing.T) {
	s := busyMachine(t)
	for _, c := range s.Cores {
		c.StopFetch()
	}
	parts := map[int]int{}
	limit := s.Sched.Now() + drainBound
	for {
		part, held := s.busy()
		if !held {
			break
		}
		if s.Sched.Now() >= limit {
			t.Fatal("machine did not drain")
		}
		parts[part]++
		if a := testing.AllocsPerRun(1, func() { _, busySink = s.busy() }); a != 0 {
			t.Fatalf("busy() on a machine held by part %d allocates %.1f/op, want 0", part, a)
		}
		s.cycle(limit)
	}
	t.Logf("cycles held, by part (-1 scheduler, 0 core, 1 memory system): %v", parts)
}

// TestDrainQuiescesBusyMachine drives a machine mid-run to a quiescent
// boundary and verifies execution continues to completion afterwards.
func TestDrainQuiescesBusyMachine(t *testing.T) {
	s := busyMachine(t)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if err := s.Quiesced(); err != nil {
		t.Fatalf("machine not quiesced after drain: %v", err)
	}
	s.ResumeFetch()
	res, err := s.RunUntilHalt(10_000_000)
	if err != nil {
		t.Fatalf("run after drain: %v", err)
	}
	if res.Committed == 0 {
		t.Fatal("no instructions committed after drain")
	}
}

// TestDrainBoundNamesOffendingComponent verifies an exhausted drain bound
// reports which component still holds in-flight state instead of a bare
// timeout.
func TestDrainBoundNamesOffendingComponent(t *testing.T) {
	s := busyMachine(t)
	err := s.drainWithin(context.Background(), 1)
	if err == nil {
		t.Fatal("1-cycle drain of a busy machine succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "refused to drain") {
		t.Fatalf("error does not describe the drain bound: %v", err)
	}
	// The offender must be named: one of the specific quiesce conditions,
	// never a generic failure.
	for _, want := range []string{"pending events", "ROB", "queue", "store", "fetch", "MSHR", "walks", "callbacks", "waiters"} {
		if strings.Contains(msg, want) {
			return
		}
	}
	t.Fatalf("error names no component: %v", err)
}

// TestDrainHonorsContext verifies a cancelled context aborts the drain
// loop.
func TestDrainHonorsContext(t *testing.T) {
	s := busyMachine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestDrainOnQuiescedMachineIsNoOp: draining an already-quiet machine
// returns immediately without advancing the clock.
func TestDrainOnQuiescedMachineIsNoOp(t *testing.T) {
	spec, _ := workload.ByName("hmmer")
	s := New(DefaultConfig(1))
	p := s.NewProcess(workload.Build(spec, 0.05))
	s.RunOn(0, p, 0)
	before := s.Sched.Now()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Sched.Now() != before {
		t.Fatalf("no-op drain advanced the clock %d -> %d", before, s.Sched.Now())
	}
	s.ResumeFetch()
}

// TestQuiescedNamesPendingEvents covers the scheduler arm of the
// machine-level quiesce check.
func TestQuiescedNamesPendingEvents(t *testing.T) {
	s := busyMachine(t)
	err := s.Quiesced()
	if err == nil {
		t.Fatal("busy machine reported quiesced")
	}
	msg := err.Error()
	if !strings.Contains(msg, "pending events") && !strings.Contains(msg, "core") {
		t.Fatalf("quiesce error names neither scheduler nor a core: %v", err)
	}
}
