package sim_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/defense"
	"repro/internal/figures"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// TestRunWithUndrainedStoresIsAnError wedges the post-halt store drain (a
// core that may have no drain in flight never empties its store buffer)
// and requires the run to say so rather than report success with the
// stores still buffered — and to say it quickly: the 100 000 dead cycles
// it waits are one clock jump, not 100 000 iterations.
func TestRunWithUndrainedStoresIsAnError(t *testing.T) {
	b := isa.NewBuilder("two-stores")
	buf := b.Alloc("buf", 64, 64)
	b.Li(isa.X(5), buf)
	b.Li(isa.X(6), 7)
	b.Store(isa.X(6), isa.X(5), 0)
	b.Store(isa.X(6), isa.X(5), 8)
	b.Halt()
	cfg := sim.DefaultConfig(2)
	cfg.CPU.MaxDrainsInFlight = 0
	s := sim.New(cfg)
	s.RunOn(1, s.NewProcess(b.MustBuild()), 0)
	start := time.Now()
	res, err := s.RunUntilHalt(1_000_000)
	if err == nil {
		t.Fatalf("run with a wedged store buffer reported success: %+v", res)
	}
	if msg := err.Error(); !strings.Contains(msg, "core 1") || !strings.Contains(msg, "undrained stores") {
		t.Fatalf("error does not name the core holding the stores: %v", err)
	}
	if s.Cores[1].Drained() {
		t.Fatal("test premise broken: the store buffer drained")
	}
	if now := s.Sched.Now(); now < 100_000 {
		t.Fatalf("gave up at cycle %d, before the drain bound", now)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("waiting out the drain bound took %v: the dead cycles were iterated", d)
	}
}

// TestStepSizeDoesNotChangeTheMachine runs the same machine stepped 64
// cycles at a time (cores sleep, the clock jumps dead stretches), one
// cycle at a time (cores sleep, the clock cannot jump) and one cycle at a
// time with every core poked awake first (nothing is ever skipped), and
// requires identical machines at the end: same clock, same snapshot bytes.
func TestStepSizeDoesNotChangeTheMachine(t *testing.T) {
	const cycles = 60_000
	for _, tc := range []struct {
		kernel string
		sch    defense.Scheme
	}{
		{"mcf", defense.MuonTrap()},
		{"canneal", defense.InvisiSpecFuture()},
		{"streamcluster", defense.SafeBet()},
	} {
		t.Run(tc.kernel+"/"+tc.sch.Name, func(t *testing.T) {
			finish := func(s *sim.System) string {
				t.Helper()
				if err := s.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				snap, err := s.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%s@%d", snap.Hash()[:16], s.Sched.Now())
			}
			build := func() *sim.System {
				return figures.BuildSystem(simtest.MustSpec(t, tc.kernel), tc.sch, 0.02)
			}
			big := build()
			for i := 0; i < cycles/64; i++ {
				big.Step(64)
			}
			big.Step(cycles % 64)
			one := build()
			awake := build()
			for i := 0; i < cycles; i++ {
				one.Step(1)
				for _, c := range awake.Cores {
					c.SetReg(isa.Zero, 0)
				}
				awake.Step(1)
			}
			want := finish(awake)
			if got := finish(big); got != want {
				t.Fatalf("stepping by 64 gives %s, never sleeping gives %s", got, want)
			}
			if got := finish(one); got != want {
				t.Fatalf("stepping by 1 gives %s, never sleeping gives %s", got, want)
			}
		})
	}
}
