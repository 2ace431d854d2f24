package sim_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// contendingProg builds a 4-thread kernel that drives every operation a
// core performs on shared state from all four cores at once: a spin lock
// (AMO), a write-shared counter array, read-shared scans with
// data-dependent branches (mispredicts and squashes), syscalls
// (timer-independent domain switches) and an explicit filter flush. No
// registered workload combines them.
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

// contendingSystem builds a 4-core machine under the scheme (timer-driven
// domain switches, BTB isolation) running four threads of the contending
// kernel.
func contendingSystem(sch defense.Scheme) *sim.System {
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

// contendingGolden holds the contending kernel's totals and per-core
// committed / nacks / syscalls counters, recorded at commit d7b3568. They
// pin the order in which the four cores' operations on the scheduler, the
// memory ports and physical memory interleave — core 0's whole tick, then
// core 1's, ..., then the event phase — so a reordering of one of them
// fails here by name. They change only with an intended timing change.
var contendingGolden = []struct {
	scheme            defense.Scheme
	cycles, committed uint64
	perCore           [4][3]uint64 // committed, nacks, syscalls
}{
	{defense.Insecure(), 32704, 7196,
		[4][3]uint64{{1853, 0, 4}, {1707, 0, 4}, {1838, 0, 4}, {1798, 0, 4}}},
	{defense.MuonTrap(), 36032, 7172,
		[4][3]uint64{{1915, 28, 4}, {1734, 34, 4}, {1743, 30, 4}, {1780, 13, 4}}},
}

func TestContendingKernelGolden(t *testing.T) {
	for _, g := range contendingGolden {
		res, err := contendingSystem(g.scheme).RunUntilHalt(5_000_000)
		if err != nil {
			t.Fatalf("%s: %v", g.scheme.Name, err)
		}
		if uint64(res.Cycles) != g.cycles || res.Committed != g.committed {
			t.Errorf("%s: cycles/committed %d/%d, want %d/%d",
				g.scheme.Name, res.Cycles, res.Committed, g.cycles, g.committed)
		}
		for core, want := range g.perCore {
			for i, name := range []string{"committed", "nacks", "syscalls"} {
				key := fmt.Sprintf("core%d.%s", core, name)
				if got := res.Counters[key]; got != want[i] {
					t.Errorf("%s: %s = %d, want %d", g.scheme.Name, key, got, want[i])
				}
			}
		}
	}
}

// TestContendingKernelCheckpointsByteIdentical runs the contending kernel
// twice at the same mid-run checkpoint cadence and demands identical
// results and byte-identical snapshot sequences, then restores the middle
// checkpoint into a fresh machine, which must finish with the
// uninterrupted run's exact result and remaining checkpoints.
func TestContendingKernelCheckpointsByteIdentical(t *testing.T) {
	run := func(from *checkpoint.Snapshot) ([]*checkpoint.Snapshot, sim.RunResult) {
		s := contendingSystem(defense.MuonTrap())
		if from != nil {
			if err := s.RestoreSnapshot(from); err != nil {
				t.Fatalf("restore: %v", err)
			}
		}
		var snaps []*checkpoint.Snapshot
		res, err := s.RunUntilHaltCkpt(context.Background(), 5_000_000, 5_000,
			func(sn *checkpoint.Snapshot) error { snaps = append(snaps, sn); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return snaps, res
	}
	sameSnaps := func(label string, got, want []*checkpoint.Snapshot) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d checkpoints, want %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i].Hash() != want[i].Hash() {
				t.Fatalf("%s: checkpoint %d differs", label, i)
			}
		}
	}

	snaps, res := run(nil)
	if len(snaps) < 2 {
		t.Fatalf("test premise broken: only %d checkpoints taken", len(snaps))
	}
	againSnaps, againRes := run(nil)
	simtest.ResultsEqual(t, "second run", res, againRes)
	sameSnaps("second run", againSnaps, snaps)

	mid := len(snaps) / 2
	restSnaps, restRes := run(snaps[mid])
	simtest.ResultsEqual(t, "restored from the middle checkpoint", res, restRes)
	sameSnaps("restored from the middle checkpoint", restSnaps, snaps[mid+1:])
}
