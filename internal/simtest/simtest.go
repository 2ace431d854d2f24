package simtest

import (
	"testing"

	"repro/internal/defense"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MustSpec looks a workload up in the registry, failing the test when it
// is missing.
func MustSpec(tb testing.TB, name string) workload.Spec {
	tb.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("workload %s missing", name)
	}
	return spec
}

// WarmSystem builds a default 1-core machine running the named workload
// and architecturally fast-forwards it insts instructions.
func WarmSystem(tb testing.TB, name string, scale float64, insts int) *sim.System {
	tb.Helper()
	spec := MustSpec(tb, name)
	s := sim.New(sim.DefaultConfig(1))
	p := s.NewProcess(workload.Build(spec, scale))
	s.RunOn(0, p, 0)
	if got := s.Warmup(insts); got != insts {
		tb.Fatalf("warm-up executed %d insts, want %d", got, insts)
	}
	return s
}

// CountersEqual asserts two counter sets are identical: same keys, same
// values. The label prefixes failures so table-driven callers stay
// readable.
func CountersEqual(tb testing.TB, label string, a, b map[string]uint64) {
	tb.Helper()
	if len(a) != len(b) {
		tb.Fatalf("%s: counter sets differ: %d vs %d", label, len(a), len(b))
	}
	for k, v := range a {
		if got, ok := b[k]; !ok || got != v {
			tb.Fatalf("%s: counter %s: %d vs %d", label, k, v, got)
		}
	}
}

// ResultsEqual asserts two runs agree bit-for-bit: cycles, committed
// instructions and every statistics counter.
func ResultsEqual(tb testing.TB, label string, a, b sim.RunResult) {
	tb.Helper()
	if a.Cycles != b.Cycles || a.Committed != b.Committed {
		tb.Fatalf("%s: %d cycles / %d committed vs %d / %d",
			label, a.Cycles, a.Committed, b.Cycles, b.Committed)
	}
	CountersEqual(tb, label, a.Counters, b.Counters)
}

// contendingProg builds a 4-thread kernel that drives every operation a
// core performs on shared state from all four cores at once: a spin lock
// (AMO), a write-shared counter array, read-shared scans with
// data-dependent branches (mispredicts and squashes), syscalls
// (timer-independent domain switches) and an explicit filter flush. No
// registered workload combines them. The sim suite pins its timing; the
// cpu suite runs its issue-queue oracle over it.
func contendingProg() *isa.Program {
	b := isa.NewBuilder("contend")
	lock := b.Alloc("lock", 8, 64)
	shared := b.Alloc("shared", 1024, 64)
	priv := b.Alloc("priv", 4*64, 64)

	b.Shli(isa.X(20), isa.X(10), 6) // tid*64: private slot
	b.Li(isa.X(21), priv)
	b.Add(isa.X(21), isa.X(21), isa.X(20))
	b.Li(isa.X(22), lock)
	b.Li(isa.X(23), shared)
	b.Li(isa.X(5), 0)  // loop counter
	b.Li(isa.X(6), 60) // iterations

	b.Label("loop")
	// Take the lock (CAS 0 -> 1), bump a shared cell, release.
	b.Label("acquire")
	b.AmoCas(isa.X(7), isa.X(22), isa.Zero, 1)
	b.Bne(isa.X(7), isa.Zero, "acquire")
	b.Andi(isa.X(8), isa.X(5), 63)
	b.Shli(isa.X(8), isa.X(8), 3)
	b.Add(isa.X(8), isa.X(23), isa.X(8))
	b.Load(isa.X(9), isa.X(8), 0)
	b.Addi(isa.X(9), isa.X(9), 1)
	b.Store(isa.X(9), isa.X(8), 0)
	b.Store(isa.Zero, isa.X(22), 0) // unlock

	// Data-dependent branch off the shared value: mispredicts + squashes.
	b.Andi(isa.X(11), isa.X(9), 1)
	b.Beq(isa.X(11), isa.Zero, "even")
	b.Addi(isa.X(12), isa.X(12), 3)
	b.Jmp("join")
	b.Label("even")
	b.Addi(isa.X(12), isa.X(12), 5)
	b.Label("join")
	b.Store(isa.X(12), isa.X(21), 0)

	// Periodic syscall and filter flush to hit the domain-switch paths.
	b.Andi(isa.X(13), isa.X(5), 15)
	b.Bne(isa.X(13), isa.Zero, "nosys")
	b.Syscall()
	b.FlushSF()
	b.Label("nosys")

	b.Addi(isa.X(5), isa.X(5), 1)
	b.Blt(isa.X(5), isa.X(6), "loop")
	b.Halt()
	return b.MustBuild()
}

// ContendingSystem builds a 4-core machine under the scheme (timer-driven
// domain switches, BTB isolation) running four threads of the contending
// kernel.
func ContendingSystem(sch defense.Scheme) *sim.System {
	cfg := sim.DefaultConfig(4)
	cfg.Mem.Mode = sch.Mode
	cfg.CPU.Defense = sch.CPU
	cfg.TimerInterval = 3000
	cfg.BTBIsolation = true
	s := sim.New(cfg)
	prog := contendingProg()
	p := s.NewProcess(prog)
	for th := 1; th < 4; th++ {
		s.AddThread(p, th, prog.Entry)
	}
	for core := 0; core < 4; core++ {
		s.RunOn(core, p, core)
	}
	return s
}
