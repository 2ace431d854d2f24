package cpu_test

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/defense"
	"repro/internal/event"
	"repro/internal/figures"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// waiterPeaks records the most stale waiter references, and the most
// consumers parked on a faulted producer, that any one checked cycle held;
// and, summed over the run, the loads found waiting on older stores (what
// the polled memMaintenance would have retried), the loads found parked, by
// what they waited for, and the core-cycles found asleep, with and without
// a wake-up time.
type waiterPeaks struct {
	stale, onFaulted            int
	waiting                     uint64
	onStore, onAmo              uint64
	asleepTimed, asleepUntilHit uint64
	sleepers                    cpu.SleeperCheck
}

// checkOracles runs the three per-cycle oracles on every core: the
// issue queue against its polled definition, the parked loads and the
// frontiers against theirs, and a real tick of every sleeping core against
// the claim that it changes nothing.
func checkOracles(t *testing.T, s *sim.System, when string, peaks *waiterPeaks) {
	t.Helper()
	stale, onFaulted := 0, 0
	for ci, c := range s.Cores {
		if err := c.CheckIssueQueue(); err != nil {
			t.Fatalf("%s, cycle %d, core %d: %v", when, s.Sched.Now(), ci, err)
		}
		st, of := c.WaiterStats()
		stale, onFaulted = stale+st, onFaulted+of
		if simtest.RaceEnabled {
			// The other two oracles copy and compare the whole instruction
			// pool every cycle, which the detector instruments access by
			// access (a hundred times slower) to learn nothing about a
			// one-goroutine run; the race job keeps the cheap one.
			continue
		}
		if err := c.CheckParkedLoads(); err != nil {
			t.Fatalf("%s, cycle %d, core %d: %v", when, s.Sched.Now(), ci, err)
		}
		asleep, err := peaks.sleepers.Check(c)
		if err != nil {
			t.Fatalf("%s, cycle %d, core %d: %v", when, s.Sched.Now(), ci, err)
		}
		if asleep && c.AsleepUntil() != ^event.Cycle(0) {
			peaks.asleepTimed++
		} else if asleep {
			peaks.asleepUntilHit++
		}
		peaks.waiting += uint64(c.WaitingLoads())
		st, am := c.ParkedKinds()
		peaks.onStore, peaks.onAmo = peaks.onStore+uint64(st), peaks.onAmo+uint64(am)
	}
	peaks.stale = max(peaks.stale, stale)
	peaks.onFaulted = max(peaks.onFaulted, onFaulted)
}

func allHalted(s *sim.System) bool {
	for _, c := range s.Cores {
		if !c.Halted() {
			return false
		}
	}
	return true
}

// runWithOracle steps the machine to completion one cycle at a time with
// the oracle after every cycle. A third of the way in (drainAt cycles) it
// drains the machine the way a checkpoint does — still checking every
// cycle — and requires the drained cores to be quiet with every waiter
// node back on the free chain, then resumes. At the drained point and when
// the run ends it also holds the memory system to its coherence
// invariants (at most one owner per line across the L1Ds and data filter
// caches, never beside L1D sharers, which coherence reads straight off
// the caches), under whatever scheme built s.
func runWithOracle(t *testing.T, s *sim.System, drainAt, maxCycles int) (peaks waiterPeaks) {
	t.Helper()
	cycle := 0
	for ; cycle < drainAt && !allHalted(s); cycle++ {
		s.Step(1)
		checkOracles(t, s, "running", &peaks)
	}
	for _, c := range s.Cores {
		c.StopFetch()
	}
	for ; s.Quiesced() != nil; cycle++ {
		if cycle >= maxCycles {
			t.Fatalf("machine did not drain: %v", s.Quiesced())
		}
		s.Step(1)
		checkOracles(t, s, "draining", &peaks)
	}
	for ci, c := range s.Cores {
		if !c.Quiet() || c.Quiesced() != nil {
			t.Fatalf("core %d: Quiet() = %v, Quiesced() = %v on a drained machine", ci, c.Quiet(), c.Quiesced())
		}
	}
	checkOracles(t, s, "drained", &peaks) // empty ROB: the oracle demands every node free
	checkCoherence(t, s, "drained")
	s.ResumeFetch()
	for ; !allHalted(s); cycle++ {
		if cycle >= maxCycles {
			t.Fatalf("run did not complete within %d cycles", maxCycles)
		}
		s.Step(1)
		checkOracles(t, s, "resumed", &peaks)
	}
	for ci, c := range s.Cores {
		if c.HaltedBad() {
			t.Fatalf("core %d halted abnormally", ci)
		}
	}
	checkCoherence(t, s, "ended")
	return peaks
}

// checkCoherence fails the test when s's memory system breaks a coherence
// invariant.
func checkCoherence(t *testing.T, s *sim.System, phase string) {
	t.Helper()
	if msg := s.Hier.CheckInvariants(); msg != "" {
		t.Fatalf("%s: coherence invariant broken: %s", phase, msg)
	}
}

// TestIssueQueueMatchesPolledDefinition holds the event-driven issue
// stage, cycle by cycle, to the definition it replaced (see
// CheckIssueQueue) on the kernels that stress each way an entry enters,
// leaves or is thrown out of the queue: a squash-heavy data-dependent
// branch kernel, the lock-contending four-core AMO kernel (head-of-ROB
// execution, NACKs, syscalls, timer flushes), and one SPEC and one Parsec
// kernel — under the baseline, MuonTrap and one scheme of each pipeline
// defense family, whose stalls keep entries queued longest.
func TestIssueQueueMatchesPolledDefinition(t *testing.T) {
	schemes := []defense.Scheme{
		defense.Insecure(), defense.MuonTrap(), defense.STTFuture(),
		defense.InvisiSpecSpectre(), defense.SafeBet(),
	}
	if simtest.RaceEnabled || testing.Short() {
		schemes = schemes[1:3] // the detector adds nothing to a one-goroutine run
	}
	mcf, canneal := simtest.MustSpec(t, "mcf"), simtest.MustSpec(t, "canneal")
	kernels := []struct {
		name    string
		build   func(defense.Scheme) *sim.System
		drainAt int
	}{
		{"branchy", func(sch defense.Scheme) *sim.System {
			cfg := sim.DefaultConfig(1)
			cfg.CPU.Defense = sch.CPU
			cfg.Mem.Mode = sch.Mode
			s := sim.New(cfg)
			s.RunOn(0, s.NewProcess(branchyKernel(1500)), 0)
			return s
		}, 4000},
		{"contending", simtest.ContendingSystem, 10_000},
		{"mcf", func(sch defense.Scheme) *sim.System {
			return figures.BuildSystem(mcf, sch, 0.02)
		}, 2000},
		{"canneal", func(sch defense.Scheme) *sim.System {
			return figures.BuildSystem(canneal, sch, 0.02)
		}, 5000},
	}
	for _, k := range kernels {
		for _, sch := range schemes {
			t.Run(k.name+"/"+sch.Name, func(t *testing.T) {
				t.Parallel()
				s := k.build(sch)
				peaks := runWithOracle(t, s, k.drainAt, 2_000_000)
				t.Logf("%d cycles, %d squashed on core 0; at most %d stale waiter references "+
					"and %d consumers parked on a faulted producer at once",
					s.Sched.Now(), s.Cores[0].Count(cpu.Squashed), peaks.stale, peaks.onFaulted)
				if k.name == "branchy" && (s.Cores[0].Count(cpu.Squashed) < 1000 || peaks.stale == 0 || peaks.onFaulted == 0) {
					t.Fatalf("test premise broken: the squash-heavy kernel must leave parked consumers " +
						"behind its squashes and park wrong-path consumers on a faulted load")
				}
			})
		}
	}
}
