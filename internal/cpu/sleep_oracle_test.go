package cpu_test

import (
	"context"
	"testing"

	"repro/internal/cpu"
	"repro/internal/defense"
	"repro/internal/event"
	"repro/internal/figures"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// forwardingKernel keeps loads waiting on older stores. Its first loop
// stores a value that comes late (through a divide) to an address that is
// known early and reloads it at once; its second stores to an address that
// itself comes late and loads from somewhere else behind it. Either way the
// store has no address until the divide is done (a store computes its
// address once it holds its data), and the load behind it waits for one;
// in the first loop it is then forwarded the data. In both, an
// unpredictable branch squashes loads while they are parked.
func forwardingKernel(n int64) *isa.Program {
	b := isa.NewBuilder("forwarding")
	table := b.Alloc("table", 8192, 64)
	b.Li(isa.X(5), 0)
	b.Li(isa.X(7), uint64(n))
	b.Li(isa.X(8), 0x9E3779B97F4A7C15)
	b.Li(isa.X(9), 6364136223846793005)
	b.Li(isa.X(20), table)
	b.Li(isa.X(21), 3)
	b.Li(isa.X(22), 1)
	for _, lateAddress := range []bool{false, true} {
		loop, skip := "data", "data-skip"
		if lateAddress {
			loop, skip = "addr", "addr-skip"
		}
		b.Li(isa.X(6), 0)
		b.Label(loop)
		b.Mul(isa.X(8), isa.X(8), isa.X(9))
		b.Addi(isa.X(8), isa.X(8), 12345)
		b.Shri(isa.X(11), isa.X(8), 33)
		b.Andi(isa.X(12), isa.X(11), 4088)
		b.Add(isa.X(12), isa.X(12), isa.X(20))
		if lateAddress {
			b.Div(isa.X(15), isa.X(12), isa.X(22)) // the address, late
			b.Store(isa.X(11), isa.X(15), 4096)
			b.Load(isa.X(16), isa.X(20), 16) // behind a store without an address
		} else {
			b.Div(isa.X(13), isa.X(11), isa.X(21)) // the data, late
			b.Store(isa.X(13), isa.X(12), 0)
			b.Load(isa.X(16), isa.X(12), 0) // forwarded once the divide is done
		}
		b.Add(isa.X(5), isa.X(5), isa.X(16))
		b.Andi(isa.X(17), isa.X(11), 1)
		b.Beq(isa.X(17), isa.Zero, skip)
		b.Load(isa.X(18), isa.X(12), 4096)
		b.Add(isa.X(5), isa.X(5), isa.X(18))
		b.Label(skip)
		b.Addi(isa.X(6), isa.X(6), 1)
		b.Blt(isa.X(6), isa.X(7), loop)
	}
	b.Halt()
	return b.MustBuild()
}

// dividerKernel issues independent divides far faster than the two
// unpipelined dividers retire them: the issue queue fills with ready
// divides, dispatch stops, and the core sleeps with instructions that could
// issue but for a divider — which comes free when a divide completes, the
// event that wakes it.
func dividerKernel(n int64) *isa.Program {
	b := isa.NewBuilder("dividers")
	b.Li(isa.X(6), 0)
	b.Li(isa.X(7), uint64(n))
	b.Li(isa.X(8), 0x9E3779B97F4A7C15)
	b.Li(isa.X(9), 7)
	b.Label("loop")
	for r := 10; r < 18; r++ {
		b.Div(isa.X(r), isa.X(8), isa.X(9))
	}
	b.Addi(isa.X(6), isa.X(6), 1)
	b.Blt(isa.X(6), isa.X(7), "loop")
	b.Halt()
	return b.MustBuild()
}

// chaseKernel walks a large zero-filled array with a stride that misses
// every cache, each load's address depending on the load before it: the
// core fills its window, runs out of things to do and has nothing to wait
// for but DRAM.
func chaseKernel(n int64) *isa.Program {
	b := isa.NewBuilder("chase")
	big := b.Alloc("big", 1<<21, 4096)
	b.Li(isa.X(6), 0)
	b.Li(isa.X(7), uint64(n))
	b.Li(isa.X(12), big)
	b.Label("loop")
	b.Load(isa.X(10), isa.X(12), 0)
	b.Add(isa.X(12), isa.X(12), isa.X(10))
	b.Addi(isa.X(12), isa.X(12), 4096+64)
	b.Addi(isa.X(6), isa.X(6), 1)
	b.Blt(isa.X(6), isa.X(7), "loop")
	b.Halt()
	return b.MustBuild()
}

// oneCore builds a one-core machine running prog under the scheme.
func oneCore(sch defense.Scheme, prog *isa.Program) *sim.System {
	cfg := sim.DefaultConfig(1)
	cfg.CPU.Defense = sch.CPU
	cfg.Mem.Mode = sch.Mode
	s := sim.New(cfg)
	s.RunOn(0, s.NewProcess(prog), 0)
	return s
}

// oracleSchemes is all 13 schemes, or for a short run three that between
// them use both frontiers and the SafeBet stall. Under the race detector the
// per-cycle oracles of this file do not run at all (see checkOracles).
func oracleSchemes(t *testing.T) []defense.Scheme {
	if simtest.RaceEnabled {
		t.Skip("per-cycle parked-load and sleeper oracles are skipped under the race detector")
	}
	if testing.Short() {
		return []defense.Scheme{defense.MuonTrap(), defense.STTFuture(), defense.SafeBet()}
	}
	return defense.All()
}

type oracleKernel struct {
	name    string
	build   func(defense.Scheme) *sim.System
	drainAt int
}

func workloadKernel(t *testing.T, name string, scale float64, drainAt int) oracleKernel {
	spec := simtest.MustSpec(t, name)
	return oracleKernel{name, func(sch defense.Scheme) *sim.System {
		return figures.BuildSystem(spec, sch, scale)
	}, drainAt}
}

// TestParkedLoadsOracle holds the parked loads and the two frontiers, cycle
// by cycle, to the scans they replaced (see CheckParkedLoads) — under every
// scheme, on one and on four cores, with a drain in the middle — on the
// kernels that park loads each way: behind a store whose address or data
// comes late (forwarding), behind an AMO (contending), and across cores
// that share what they store to (streamcluster). The contending kernel is
// the slow one; TestIssueQueueMatchesPolledDefinition already runs it
// through the same three oracles under five schemes, so here it runs under
// the other eight.
func TestParkedLoadsOracle(t *testing.T) {
	elsewhere := map[string]bool{"insecure": true, "muontrap": true, "stt-future": true, "invisispec-spectre": true, "safebet": true}
	kernels := []oracleKernel{
		{"forwarding", func(sch defense.Scheme) *sim.System { return oneCore(sch, forwardingKernel(200)) }, 3000},
		{"contending", simtest.ContendingSystem, 10_000},
		workloadKernel(t, "streamcluster", 0.01, 4000),
	}
	for _, k := range kernels {
		for _, sch := range oracleSchemes(t) {
			if k.name == "contending" && elsewhere[sch.Name] && !testing.Short() {
				continue
			}
			t.Run(k.name+"/"+sch.Name, func(t *testing.T) {
				t.Parallel()
				s := k.build(sch)
				peaks := runWithOracle(t, s, k.drainAt, 2_000_000)
				t.Logf("%d cycles; load-cycles parked on a store %d, on an AMO %d", s.Sched.Now(), peaks.onStore, peaks.onAmo)
				switch {
				case k.name == "forwarding" && peaks.onStore == 0:
					t.Fatal("test premise broken: the kernel must park loads behind stores that have no address yet")
				case k.name == "contending" && peaks.onAmo == 0:
					t.Fatal("test premise broken: the lock kernel must park loads behind its AMOs")
				}
			})
		}
	}
}

// switchedKernel is what TestContextSwitchOracle runs: an endless loop
// that stores through a late address and loads behind the store, and that
// sets up every register it uses inside the loop. A context switch in this
// simulator resumes at the fetch PC, so whatever was in flight is lost;
// with nothing carried from one iteration to the next but a generator, the
// loop survives that.
func switchedKernel() *isa.Program {
	b := isa.NewBuilder("switched")
	table := b.Alloc("table", 16384, 64)
	b.Label("loop")
	b.Li(isa.X(9), 6364136223846793005)
	b.Li(isa.X(20), table)
	b.Li(isa.X(22), 1)
	b.Mul(isa.X(8), isa.X(8), isa.X(9))
	b.Addi(isa.X(8), isa.X(8), 12345)
	b.Shri(isa.X(11), isa.X(8), 33)
	b.Andi(isa.X(12), isa.X(11), 4088)
	b.Div(isa.X(15), isa.X(12), isa.X(22)) // the offset, late
	b.Andi(isa.X(15), isa.X(15), 4088)
	b.Add(isa.X(15), isa.X(15), isa.X(20))
	b.Store(isa.X(11), isa.X(15), 0)
	b.Load(isa.X(16), isa.X(20), 8192) // behind a store without an address
	b.Load(isa.X(17), isa.X(20), 8256)
	b.Add(isa.X(5), isa.X(16), isa.X(17))
	b.Jmp("loop")
	return b.MustBuild()
}

// lockKernel is an endless loop of AMOs, each behind a store it has to
// wait for (an AMO is a full fence), so that a context switch often finds
// one in flight: translated, or with its drain under way. The first AMO
// takes the lock (0 → 1); the others find it taken. It also returns the
// lock's virtual address.
func lockKernel() (*isa.Program, uint64) {
	b := isa.NewBuilder("locks")
	lock := b.Alloc("lock", 128, 64)
	b.Label("loop")
	b.Li(isa.X(20), lock)
	b.Store(isa.X(20), isa.X(20), 64)
	b.AmoCas(isa.X(18), isa.X(20), isa.Zero, 1)
	b.Jmp("loop")
	return b.MustBuild(), lock
}

// switchCount is what a run of switchEvery found at its switches.
type switchCount struct {
	retrying, amos int // switches that found loads on the retry list, an AMO in flight
	peaks          waiterPeaks
}

// switchEvery switches a one-core machine under sch between two processes
// running prog every few hundred cycles, wherever the pipeline happens to
// be, and holds the three oracles after every cycle.
func switchEvery(t *testing.T, sch defense.Scheme, prog *isa.Program, switches int) (*sim.System, *switchCount) {
	cfg := sim.DefaultConfig(1)
	cfg.CPU.Defense = sch.CPU
	cfg.Mem.Mode = sch.Mode
	cfg.ContextSwitchCost = 20
	s := sim.New(cfg)
	procs := []*sim.Process{s.NewProcess(prog), s.NewProcess(prog)}
	n := &switchCount{}
	for sw := 0; sw < switches; sw++ {
		if s.Cores[0].RetryListLen() > 0 {
			n.retrying++
		}
		if _, inFlight := s.Cores[0].HeadAmo(); inFlight {
			n.amos++
		}
		s.RunOn(0, procs[sw%2], 0)
		checkOracles(t, s, "just switched", &n.peaks)
		for i := 0; i < 400+sw%131; i++ { // long enough for a cold fetch to land under MuonTrap, whose domain switch empties the filter
			s.Step(1)
			checkOracles(t, s, "switching", &n.peaks)
		}
	}
	return s, n
}

// TestContextSwitchOracle switches a core between two processes every few
// hundred cycles, wherever the pipeline happens to be — loads parked,
// loads on the retry list, frontiers mid-ROB, the core asleep — and holds
// the three oracles after every cycle: a flushed pipeline must leave none
// of that behind. This is what the attack rigs do to a victim core.
func TestContextSwitchOracle(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("per-cycle parked-load and sleeper oracles are skipped under the race detector")
	}
	for _, sch := range []defense.Scheme{defense.MuonTrap(), defense.InvisiSpecSpectre(), defense.STTFuture(), defense.SafeBet()} {
		t.Run(sch.Name, func(t *testing.T) {
			t.Parallel()
			s, n := switchEvery(t, sch, switchedKernel(), 200)
			t.Logf("%d committed; %d load-cycles parked; %d switches found loads on the retry list",
				s.Cores[0].CommittedInsts(), n.peaks.onStore, n.retrying)
			if s.Cores[0].CommittedInsts() < 1000 || n.peaks.onStore == 0 || n.retrying == 0 {
				t.Fatal("test premise broken: the switched processes must make progress, park loads, and be switched out with loads waiting to be retried")
			}
		})
	}
}

// TestContextSwitchKillsAmosOracle switches a core between two lock loops
// the same way: a switch that kills an AMO mid-flight leaves its
// translation or drain to complete for a freed slot, which must be
// dropped without disturbing whatever the slot holds by then.
func TestContextSwitchKillsAmosOracle(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("per-cycle parked-load and sleeper oracles are skipped under the race detector")
	}
	for _, sch := range []defense.Scheme{defense.Insecure(), defense.MuonTrap(), defense.InvisiSpecFuture()} {
		t.Run(sch.Name, func(t *testing.T) {
			t.Parallel()
			prog, _ := lockKernel()
			s, n := switchEvery(t, sch, prog, 100)
			t.Logf("%d committed; %d switches found an AMO in flight", s.Cores[0].CommittedInsts(), n.amos)
			if s.Cores[0].CommittedInsts() < 1000 || n.amos == 0 {
				t.Fatal("test premise broken: the lock loops must make progress and be switched out with an AMO in flight")
			}
		})
	}
}

// TestKilledAmoDrainFencesTheNextAmo: an AMO killed by a context switch
// while its drain is in flight leaves that drain counted until it lands,
// so the next AMO — a full fence — does not start before it has. That is
// what lets one (idx, seq) name the AMO whose drain completes. Process B
// runs first, so that its AMO finds everything warm; A's first AMO takes
// a lock no cache holds, and the switch back to B comes after its
// read-modify-write, while its drain is on the way to the L1D.
func TestKilledAmoDrainFencesTheNextAmo(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.ContextSwitchCost = 0
	s := sim.New(cfg)
	c := s.Cores[0]
	prog, lock := lockKernel()
	a, b := s.NewProcess(prog), s.NewProcess(prog)
	pfn, _ := a.PT.Translate(mem.PageNum(mem.VAddr(lock)))
	pa := mem.Addr(pfn<<mem.PageShift | lock%mem.PageBytes)
	landed := func() bool { return s.Hier.Port(0).L1DPeek(pa) != nil }
	s.RunOn(0, b, 0)
	s.Step(2000)
	s.RunOn(0, a, 0)
	for i := 0; s.Phys.Read64(pa) == 0; i++ {
		if i == 5000 {
			t.Fatal("test premise broken: A's first AMO never took its lock")
		}
		s.Step(1)
	}
	if landed() {
		t.Fatal("test premise broken: A's AMO drained in the cycle it took the lock")
	}
	s.RunOn(0, b, 0)
	waited := 0
	for !landed() {
		switch amo, inFlight := c.HeadAmo(); {
		case inFlight:
			t.Fatalf("cycle %d: an AMO started while the killed AMO's drain was in flight", s.Sched.Now())
		case amo:
			waited++
		}
		s.Step(1)
	}
	if waited == 0 {
		t.Fatal("test premise broken: B's AMO never reached the ROB head during the killed AMO's drain")
	}
	committed := c.CommittedInsts()
	s.Step(200)
	if c.CommittedInsts() == committed {
		t.Fatal("B made no progress once the drain had landed")
	}
	t.Logf("B's AMO waited %d cycles at the ROB head for the killed AMO's drain", waited)
}

// TestTestOnlyPolicyRowsOracle runs the policy rows no scheme uses — a
// safe-when rule paired with an action no scheme pairs it with — through
// the three per-cycle oracles, across a mid-run drain, on the kernels where
// the actions engage: cold loads behind unresolved branches (coldbranch),
// loads parked on stores (forwarding) and squashes (branchy). Every run
// must end in the baseline's architectural state, and each row's action
// must engage somewhere.
func TestTestOnlyPolicyRowsOracle(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("per-cycle parked-load and sleeper oracles are skipped under the race detector")
	}
	kernels := []struct {
		name    string
		prog    *isa.Program
		drainAt int
	}{
		{"coldbranch", coldBranchProgram(40), 3000},
		{"forwarding", forwardingKernel(200), 3000},
		{"branchy", branchyKernel(1500), 4000},
	}
	for _, row := range cpu.PolicyRows() {
		if row.Used {
			continue
		}
		t.Run(row.Name, func(t *testing.T) {
			var stalls, exposures uint64
			for _, k := range kernels {
				base := oneCore(defense.Insecure(), k.prog)
				if _, err := base.RunUntilHalt(2_000_000); err != nil {
					t.Fatal(err)
				}
				s := oneCore(defense.Insecure(), k.prog)
				c := s.Cores[0]
				c.SetPolicy(row)
				runWithOracle(t, s, k.drainAt, 2_000_000)
				if c.CommittedInsts() != base.Cores[0].CommittedInsts() {
					t.Fatalf("%s: %d instructions committed, the baseline %d", k.name, c.CommittedInsts(), base.Cores[0].CommittedInsts())
				}
				for r := isa.Reg(0); r < isa.NumRegs; r++ {
					if c.Reg(r) != base.Cores[0].Reg(r) {
						t.Fatalf("%s: register %d is %#x, the baseline's %#x", k.name, r, c.Reg(r), base.Cores[0].Reg(r))
					}
				}
				stalls, exposures = stalls+c.Count(cpu.SafeBetStalls), exposures+c.Count(cpu.Exposures)
			}
			t.Logf("%d footprint stalls, %d exposures", stalls, exposures)
			if stalls+exposures == 0 {
				t.Fatal("test premise broken: the row's action never engaged")
			}
		})
	}
}

// TestSleepersOracle ticks every sleeping core anyway, every cycle, and
// requires that nothing changes (see SleeperCheck) — under every scheme, on
// one and on four cores, with a drain in the middle — on the kernels that
// send a core to sleep each way: waiting for DRAM with nothing to wake it
// but the completion (chase), with ready divides waiting for a divider
// (dividers), and stalled by timer ticks and their domain switches while
// other cores run (canneal). Syscall stalls under contention are the
// contending kernel's, which TestParkedLoadsOracle and
// TestIssueQueueMatchesPolledDefinition run through the same oracle.
func TestSleepersOracle(t *testing.T) {
	kernels := []oracleKernel{
		{"chase", func(sch defense.Scheme) *sim.System { return oneCore(sch, chaseKernel(100)) }, 4000},
		{"dividers", func(sch defense.Scheme) *sim.System { return oneCore(sch, dividerKernel(150)) }, 3000},
		workloadKernel(t, "canneal", 0.01, 5000),
	}
	for _, k := range kernels {
		for _, sch := range oracleSchemes(t) {
			t.Run(k.name+"/"+sch.Name, func(t *testing.T) {
				t.Parallel()
				s := k.build(sch)
				peaks := runWithOracle(t, s, k.drainAt, 2_000_000)
				cycles := uint64(s.Sched.Now()) * uint64(len(s.Cores))
				t.Logf("%d core-cycles: asleep until a set time in %d, until something is delivered in %d",
					cycles, peaks.asleepTimed, peaks.asleepUntilHit)
				switch {
				case k.name == "chase" && peaks.asleepUntilHit*2 < cycles:
					t.Fatal("test premise broken: the pointer chase must sleep through at least half of its cycles")
				case peaks.asleepTimed+peaks.asleepUntilHit == 0:
					t.Fatal("test premise broken: no core ever slept")
				}
			})
		}
	}
}

// TestOracleCountsShowSleepAndParkingEngage checks that the two mechanisms
// do what they are for, not merely that they are harmless: a DRAM-bound
// kernel skips at least 40 % of its core ticks (clock jumps included), and
// on streamcluster the retries that find their load still blocked are
// under 1 % of what re-trying every waiting load every cycle — the loop
// memMaintenance used to be — would have spent.
func TestOracleCountsShowSleepAndParkingEngage(t *testing.T) {
	t.Run("ticks-skipped", func(t *testing.T) {
		for _, sch := range []defense.Scheme{defense.Insecure(), defense.MuonTrap()} {
			s := figures.BuildSystem(simtest.MustSpec(t, "mcf"), sch, 0.05)
			res, err := s.RunUntilHalt(20_000_000)
			if err != nil {
				t.Fatal(err)
			}
			run, total := s.Cores[0].TicksRun(), uint64(res.Cycles)
			t.Logf("%s: %d of %d core ticks run (%.1f%% skipped)", sch.Name, run, total, 100*(1-float64(run)/float64(total)))
			if run*10 > total*6 {
				t.Fatalf("%s: only %d of %d ticks skipped, want at least 40%%", sch.Name, total-run, total)
			}
		}
	})
	t.Run("load-retries", func(t *testing.T) {
		s := figures.BuildSystem(simtest.MustSpec(t, "streamcluster"), defense.MuonTrap(), 0.03)
		var polled uint64 // load-cycles spent waiting: each was one fruitless retry
		for cycle := 0; !allHalted(s); cycle++ {
			if cycle > 5_000_000 {
				t.Fatal("run did not complete")
			}
			s.Step(1)
			for _, c := range s.Cores {
				polled += uint64(c.WaitingLoads())
			}
		}
		var parked uint64
		for _, c := range s.Cores {
			parked += c.RetriesParked()
		}
		t.Logf("polling would have retried %d waiting loads without progress; parked loads were retried without progress %d times",
			polled, parked)
		if polled < 10_000 {
			t.Fatal("test premise broken: streamcluster should keep loads waiting on older stores")
		}
		if parked*100 > polled {
			t.Fatalf("%d fruitless retries is more than 1%% of the %d polling would have made", parked, polled)
		}
	})
}

// TestCheckpointWhileCoresSleepRestoresEqual takes a checkpoint from a
// machine whose cores are all asleep — sleep is not in the snapshot, so the
// restored machine's cores start awake — and requires the restored run and
// the continued run to finish identically, and the snapshot to equal one
// taken from a machine that was never allowed to sleep through a cycle.
func TestCheckpointWhileCoresSleepRestoresEqual(t *testing.T) {
	for _, sch := range []defense.Scheme{defense.MuonTrap(), defense.InvisiSpecSpectre()} {
		t.Run(sch.Name, func(t *testing.T) {
			build := func() *sim.System {
				return figures.BuildSystem(simtest.MustSpec(t, "canneal"), sch, 0.03)
			}
			s := build()
			s.Step(20_000)
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			s.Step(200) // quiesced and parked: nothing moves, every core goes to sleep
			for ci, c := range s.Cores {
				if !c.Asleep() {
					t.Fatalf("test premise broken: core %d is awake on a drained, parked machine", ci)
				}
			}
			snap, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			s.ResumeFetch()
			continued, err := s.RunUntilHalt(20_000_000)
			if err != nil {
				t.Fatal(err)
			}

			// The machine restored into has idled a few cycles with its front
			// end parked, so its cores are asleep when the snapshot arrives.
			r := build()
			for _, c := range r.Cores {
				c.StopFetch()
			}
			r.Step(3)
			for ci, c := range r.Cores {
				if !c.Asleep() {
					t.Fatalf("test premise broken: core %d of the idle machine is awake", ci)
				}
			}
			if err := r.RestoreSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			for ci, c := range r.Cores {
				if c.Asleep() {
					t.Fatalf("core %d of the restored machine is asleep", ci)
				}
			}
			r.ResumeFetch()
			restored, err := r.RunUntilHalt(20_000_000)
			if err != nil {
				t.Fatal(err)
			}
			simtest.ResultsEqual(t, "restored vs continued", continued, restored)

			// The same machine, poked awake before every cycle: no tick is
			// slept through and the clock never jumps.
			p := build()
			stepAwake := func(n int) {
				for i := 0; i < n; i++ {
					for _, c := range p.Cores {
						c.SetReg(isa.Zero, 0)
					}
					p.Step(1)
				}
			}
			stepAwake(20_000)
			for _, c := range p.Cores {
				c.StopFetch()
			}
			for p.Quiesced() != nil {
				stepAwake(1)
			}
			stepAwake(200)
			polled, err := p.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if polled.Hash() != snap.Hash() {
				t.Fatalf("snapshot of the sleeping machine %s differs from the never-sleeping machine's %s",
					snap.Hash()[:12], polled.Hash()[:12])
			}
		})
	}
}

// TestFaultingAmoHaltsTheCore: an AMO executes at the ROB head, where the
// core has nothing else to do and goes to sleep around it. A translation
// fault is the one AMO outcome that hands the core nothing but the fault
// itself; the core must still commit it, promptly.
func TestFaultingAmoHaltsTheCore(t *testing.T) {
	b := isa.NewBuilder("amo-fault")
	b.Li(isa.X(5), 0x7000_0000_0000) // unmapped
	b.AmoCas(isa.X(6), isa.X(5), isa.Zero, 1)
	b.Halt()
	s := oneCore(defense.MuonTrap(), b.MustBuild())
	_, err := s.RunUntilHalt(200_000)
	if err == nil || !s.Cores[0].HaltedBad() {
		t.Fatalf("a committed AMO fault must halt the core abnormally; got err %v, haltedBad %v", err, s.Cores[0].HaltedBad())
	}
	if s.Sched.Now() > 10_000 {
		t.Fatalf("the fault was committed only at cycle %d: the core slept through its delivery", s.Sched.Now())
	}
}

// TestPokesWakeASleepingCore puts a core to sleep with no wake-up time and
// checks that each thing the system and the attack rigs do to a core
// between steps wakes it, and that the OS timer's domain switch runs a
// tick on a core that would have slept through it.
func TestPokesWakeASleepingCore(t *testing.T) {
	asleep := func(t *testing.T) (*sim.System, *cpu.Core) {
		cfg := sim.DefaultConfig(1)
		cfg.CPU.Defense = cpu.DefenseSafeBet
		s := sim.New(cfg)
		p := s.NewProcess(loopKernel(1_000_000))
		s.RunOn(0, p, 0)
		s.Step(2000)
		c := s.Cores[0]
		c.StopFetch()
		for !c.Quiet() {
			s.Step(1)
		}
		s.Step(2)
		if !c.Asleep() || c.AsleepUntil() != ^event.Cycle(0) {
			t.Fatalf("test premise broken: a drained, parked core should sleep until poked (asleep %v until %d)",
				c.Asleep(), c.AsleepUntil())
		}
		return s, c
	}
	other := loopKernel(10)
	for _, poke := range []struct {
		name string
		do   func(*sim.System, *cpu.Core)
	}{
		{"SetReg", func(_ *sim.System, c *cpu.Core) { c.SetReg(isa.X(5), 1) }},
		{"SetPC", func(_ *sim.System, c *cpu.Core) { c.SetPC(c.PC()) }},
		{"Stall", func(_ *sim.System, c *cpu.Core) { c.Stall(10) }},
		{"StopFetch", func(_ *sim.System, c *cpu.Core) { c.StopFetch() }},
		{"ResumeFetch", func(_ *sim.System, c *cpu.Core) { c.ResumeFetch() }},
		{"SetProgram", func(_ *sim.System, c *cpu.Core) { c.SetProgram(other) }},
		{"FlushSpecFootprint", func(_ *sim.System, c *cpu.Core) { c.FlushSpecFootprint() }},
		{"WarmHalt", func(_ *sim.System, c *cpu.Core) { c.WarmHalt(false) }},
		{"RunOn (context and domain switch)", func(s *sim.System, _ *cpu.Core) { s.RunOn(0, s.NewProcess(other), 0) }},
	} {
		t.Run(poke.name, func(t *testing.T) {
			s, c := asleep(t)
			poke.do(s, c)
			if c.Asleep() {
				t.Fatalf("core still asleep after %s", poke.name)
			}
		})
	}
	t.Run("a woken core does what the poke asked", func(t *testing.T) {
		s, c := asleep(t)
		before := c.CommittedInsts()
		c.ResumeFetch()
		s.Step(500)
		if c.CommittedInsts() == before {
			t.Fatal("no instruction committed after ResumeFetch on a sleeping core")
		}
	})
	t.Run("timer domain switch", func(t *testing.T) {
		cfg := sim.DefaultConfig(1)
		cfg.TimerInterval = 5000
		s := sim.New(cfg)
		s.RunOn(0, s.NewProcess(loopKernel(1_000_000)), 0)
		c := s.Cores[0]
		s.Step(100)
		c.Stall(1_000_000)
		s.Step(1000)
		if !c.Asleep() || c.AsleepUntil() < 1_000_000 {
			t.Fatalf("test premise broken: a stalled core should sleep to the end of its stall (asleep %v until %d)",
				c.Asleep(), c.AsleepUntil())
		}
		ticks, timers := c.TicksRun(), s.TimerTicks
		s.Step(5000) // across the timer at 5000, in one call: the clock must not jump over it
		if s.TimerTicks != timers+1 {
			t.Fatalf("%d timer ticks fired across one interval, want 1", s.TimerTicks-timers)
		}
		if c.TicksRun() == ticks {
			t.Fatal("the timer's domain switch did not run a tick on the sleeping core")
		}
		if now := s.Sched.Now(); now != 6100 {
			t.Fatalf("clock at %d after stepping 100+1000+5000 cycles", now)
		}
	})
}
