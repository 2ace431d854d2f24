package cpu_test

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/defense"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// loopKernel is a tight cached ALU/branch loop: once the line buffer,
// caches and predictor warm up, every cycle exercises the full
// dispatch→issue→execute→commit path without leaving the core.
func loopKernel(n int64) *isa.Program {
	b := isa.NewBuilder("hotloop")
	b.Li(isa.X(5), 0)
	b.Li(isa.X(6), 1)
	b.Li(isa.X(7), uint64(n))
	b.Label("loop")
	b.Add(isa.X(5), isa.X(5), isa.X(6))
	b.Xor(isa.X(8), isa.X(5), isa.X(6))
	b.Addi(isa.X(6), isa.X(6), 1)
	b.Bge(isa.X(7), isa.X(6), "loop")
	b.Halt()
	return b.MustBuild()
}

// branchyKernel is the squash-heavy counterpart: each iteration loads from
// a pseudo-random slot of a small table and branches on a bit of the
// generator, which the predictor cannot learn. The branch sees the bit
// through a divide, so it resolves late, and the instructions behind it
// consume the load and the generator: wrong-path consumers are routinely
// parked on a producer that outlives their squash, the case that leaves
// stale waiter references behind. The odd path also loads through a
// pointer that is the table when the bit is set and null otherwise, so on
// the wrong path that load faults and its consumer is parked on a producer
// that will never wake it.
func branchyKernel(n int64) *isa.Program {
	b := isa.NewBuilder("branchy")
	table := b.Alloc("table", 4096, 64)
	b.Li(isa.X(5), 0)
	b.Li(isa.X(6), 0)
	b.Li(isa.X(7), uint64(n))
	b.Li(isa.X(8), 0x9E3779B97F4A7C15)
	b.Li(isa.X(9), 6364136223846793005)
	b.Li(isa.X(20), table)
	b.Li(isa.X(21), 1)
	b.Label("loop")
	b.Mul(isa.X(8), isa.X(8), isa.X(9))
	b.Addi(isa.X(8), isa.X(8), 12345)
	b.Shri(isa.X(11), isa.X(8), 33)
	b.Andi(isa.X(12), isa.X(11), 4088)
	b.Add(isa.X(12), isa.X(12), isa.X(20))
	b.Load(isa.X(13), isa.X(12), 0)
	b.Andi(isa.X(14), isa.X(11), 1)
	b.Div(isa.X(15), isa.X(14), isa.X(21)) // the bit, late
	b.Mul(isa.X(16), isa.X(14), isa.X(20)) // bit ? table : null, early
	b.Beq(isa.X(15), isa.Zero, "even")
	b.Load(isa.X(17), isa.X(16), 0)
	b.Add(isa.X(5), isa.X(5), isa.X(17))
	b.Add(isa.X(5), isa.X(5), isa.X(13))
	b.Store(isa.X(5), isa.X(12), 0)
	b.Jmp("join")
	b.Label("even")
	b.Xor(isa.X(5), isa.X(5), isa.X(13))
	b.Sub(isa.X(5), isa.X(5), isa.X(11))
	b.Label("join")
	b.Addi(isa.X(6), isa.X(6), 1)
	b.Blt(isa.X(6), isa.X(7), "loop")
	b.Halt()
	return b.MustBuild()
}

func warmSystem(tb testing.TB, prog *isa.Program, defense cpu.Defense, mode memsys.Mode) *sim.System {
	tb.Helper()
	cfg := sim.DefaultConfig(1)
	cfg.CPU.Defense = defense
	cfg.Mem.Mode = mode
	s := sim.New(cfg)
	p := s.NewProcess(prog)
	s.RunOn(0, p, 0)
	s.Step(20_000) // warm caches, predictor, pools and event-queue arrays
	if s.Cores[0].Halted() {
		tb.Fatal("kernel halted during warmup; increase iters")
	}
	return s
}

// TestDispatchCommitZeroAlloc pins the tentpole property on the pipeline:
// the steady-state dispatch→commit cycle of a cached kernel performs zero
// heap allocations — pooled dynInsts, pooled rename snapshots, ring
// ROB/store-buffer, typed events, slot-parked completions and the waiter
// slab. The squash-heavy case shows that the stale waiter references
// squashes leave behind are reclaimed rather than accumulated: a slab that
// kept growing would allocate. The InvisiSpec cases expose invisible
// loads, and the contending kernel runs AMOs on four cores: every access
// they make completes through the core's typed port client too. An
// allocation every few dozen cycles reads as 0 per one-cycle step
// (AllocsPerRun rounds down), so each case measures 1000-cycle windows.
func TestDispatchCommitZeroAlloc(t *testing.T) {
	invisiSpectre, invisiFuture := defense.InvisiSpecSpectre(), defense.InvisiSpecFuture()
	for _, tc := range []struct {
		name    string
		prog    *isa.Program // nil: simtest.ContendingSystem under insecure
		defense cpu.Defense
		mode    memsys.Mode
		squash  bool
	}{
		{"insecure", loopKernel(40_000_000), cpu.DefenseNone, memsys.Mode{}, false},
		{"muontrap", loopKernel(40_000_000), cpu.DefenseNone, mtMode, false},
		{"squash-heavy", branchyKernel(40_000_000), cpu.DefenseNone, memsys.Mode{}, true},
		{"squash-heavy-muontrap", branchyKernel(40_000_000), cpu.DefenseNone, mtMode, true},
		{"invisispec-spectre", branchyKernel(40_000_000), invisiSpectre.CPU, invisiSpectre.Mode, true},
		{"invisispec-future", branchyKernel(40_000_000), invisiFuture.CPU, invisiFuture.Mode, true},
		{"contending-amo", nil, cpu.DefenseNone, memsys.Mode{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s *sim.System
			if tc.prog != nil {
				s = warmSystem(t, tc.prog, tc.defense, tc.mode)
			} else {
				s = simtest.ContendingSystem(defense.Insecure())
				s.Step(5000) // its first core halts near cycle 29 000, after the last window
			}
			c := s.Cores[0]
			committed, squashed, exposures := c.CommittedInsts(), c.Count(cpu.Squashed), c.Count(cpu.Exposures)
			allocs := testing.AllocsPerRun(20, func() { s.Step(1000) })
			if allocs != 0 {
				t.Fatalf("steady-state 1000-cycle step allocates %.2f, want 0", allocs)
			}
			if c.CommittedInsts() == committed {
				t.Fatal("no instructions committed during measurement")
			}
			for i, core := range s.Cores {
				if core.Halted() {
					t.Fatalf("core %d halted during measurement", i)
				}
			}
			if tc.squash && c.Count(cpu.Squashed)-squashed < 1000 {
				t.Fatalf("only %d instructions squashed during measurement: the kernel lost its mispredicts",
					c.Count(cpu.Squashed)-squashed)
			}
			if tc.defense == invisiSpectre.CPU || tc.defense == invisiFuture.CPU {
				if n := c.Count(cpu.Exposures) - exposures; n < 100 {
					t.Fatalf("only %d exposures during measurement", n)
				}
			}
		})
	}
}

// BenchmarkDispatchCommit measures the core-only hot path: simulated
// instructions per second on a cached ALU loop (no memory traffic after
// warmup), isolating dispatch/issue/execute/commit from the memory system.
func BenchmarkDispatchCommit(b *testing.B) {
	s := warmSystem(b, loopKernel(4_000_000_000), cpu.DefenseNone, memsys.Mode{})
	b.ReportAllocs()
	start := s.Cores[0].CommittedInsts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(1)
	}
	b.StopTimer()
	insts := s.Cores[0].CommittedInsts() - start
	if b.N > 100 && insts == 0 {
		b.Fatal("no progress")
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
}
