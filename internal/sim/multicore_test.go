package sim_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/figures"
	"repro/internal/sim"
	"repro/internal/simtest"
)

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
		res, err := simtest.ContendingSystem(g.scheme).RunUntilHalt(5_000_000)
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
		s := simtest.ContendingSystem(defense.MuonTrap())
		if from != nil {
			if err := s.RestoreSnapshot(from); err != nil {
				t.Fatalf("restore: %v", err)
			}
		}
		var snaps []*checkpoint.Snapshot
		res, err := s.RunUntilHaltCkpt(context.Background(), 5_000_000, 5_000,
			func(sn *checkpoint.Snapshot) error {
				// The run refills sn at its next checkpoint: keep a copy.
				kept, err := checkpoint.Decode(sn.Encode())
				snaps = append(snaps, kept)
				return err
			})
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

// TestFcacheHoldsOneOwnerEveryCycle steps streamcluster under the
// vulnerable "fcache only" design one cycle at a time and holds the memory
// system to its coherence invariants on every cycle. It is the one design
// whose data filter caches take lines Exclusive, so an L1D fill, a
// speculative filter fill or a store drain beside another core's filter E
// copy must find that copy by snooping, or two cores end up owning one
// line.
func TestFcacheHoldsOneOwnerEveryCycle(t *testing.T) {
	s := figures.BuildSystem(simtest.MustSpec(t, "streamcluster"), defense.FcacheOnly(), 0.04)
	defer s.Release()
	for cycle := 0; ; cycle++ {
		if cycle >= 200_000 {
			t.Fatal("streamcluster did not halt within 200000 cycles")
		}
		halted := true
		for _, c := range s.Cores {
			halted = halted && c.Halted()
		}
		if halted {
			break
		}
		s.Step(1)
		if msg := s.Hier.CheckInvariants(); msg != "" {
			t.Fatalf("cycle %d: %s", s.Sched.Now(), msg)
		}
	}
}
