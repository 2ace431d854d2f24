package sim_test

import (
	"context"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/event"
	"repro/internal/figures"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// ckptRun executes a workload under a scheme with periodic mid-run
// checkpoints, returning the final result and every snapshot taken.
func ckptRun(t *testing.T, name string, sch defense.Scheme, scale float64,
	every event.Cycle, resumeFrom *checkpoint.Snapshot) (sim.RunResult, []*checkpoint.Snapshot) {
	t.Helper()
	sys := figures.BuildSystem(simtest.MustSpec(t, name), sch, scale)
	if resumeFrom != nil {
		if err := sys.RestoreSnapshot(resumeFrom); err != nil {
			t.Fatalf("restore: %v", err)
		}
	}
	var snaps []*checkpoint.Snapshot
	res, err := sys.RunUntilHaltCkpt(context.Background(), 10_000_000, every,
		func(s *checkpoint.Snapshot) error {
			// The run refills s at its next checkpoint: keep a copy.
			kept, err := checkpoint.Decode(s.Encode())
			snaps = append(snaps, kept)
			return err
		})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, snaps
}

// TestMidRunCheckpointRestoreIsBitExact is the core differential property:
// a run restored from any mid-run snapshot finishes with bit-identical
// cycles, instructions and statistics to the run that produced it — and
// every later checkpoint it takes is byte-identical (equal content hash)
// to the golden run's checkpoint at the same point.
func TestMidRunCheckpointRestoreIsBitExact(t *testing.T) {
	golden, snaps := ckptRun(t, "hmmer", defense.MuonTrap(), 0.1, 2048, nil)
	if len(snaps) < 2 {
		t.Fatalf("test premise broken: only %d checkpoints taken", len(snaps))
	}
	for k, snap := range snaps {
		res, rest := ckptRun(t, "hmmer", defense.MuonTrap(), 0.1, 2048, snap)
		simtest.ResultsEqual(t, "restore@"+snap.Hash()[:8], golden, res)
		want := snaps[k+1:]
		if len(rest) != len(want) {
			t.Fatalf("restore at %d: %d later checkpoints, golden took %d", k, len(rest), len(want))
		}
		for j := range rest {
			if rest[j].Hash() != want[j].Hash() {
				t.Fatalf("restore at %d: checkpoint %d diverged: %s vs %s",
					k, k+1+j, rest[j].Hash()[:12], want[j].Hash()[:12])
			}
		}
	}
}

// TestMidRunCheckpointTimingOnlyModeMatches: a nil sink drains at the same
// points without building snapshots, and must reproduce the checkpointed
// run's timing and counters exactly (the mode resumed runs use for
// schedule fidelity when persistence is off).
func TestMidRunCheckpointTimingOnlyModeMatches(t *testing.T) {
	golden, _ := ckptRun(t, "hmmer", defense.Insecure(), 0.1, 2048, nil)
	sys := figures.BuildSystem(simtest.MustSpec(t, "hmmer"), defense.Insecure(), 0.1)
	res, err := sys.RunUntilHaltCkpt(context.Background(), 10_000_000, 2048, nil)
	if err != nil {
		t.Fatal(err)
	}
	simtest.ResultsEqual(t, "timing-only", golden, res)
}

// TestMidRunCheckpointPerturbsButDeterministically: draining costs cycles,
// so a checkpointed run differs from an uncheckpointed one — that is why
// the cadence is part of the cache key — but two runs at the same cadence
// agree exactly.
func TestMidRunCheckpointPerturbsButDeterministically(t *testing.T) {
	plain, _ := ckptRun(t, "hmmer", defense.Insecure(), 0.1, 0, nil)
	a, _ := ckptRun(t, "hmmer", defense.Insecure(), 0.1, 2048, nil)
	b, _ := ckptRun(t, "hmmer", defense.Insecure(), 0.1, 2048, nil)
	simtest.ResultsEqual(t, "same cadence", a, b)
	if a.Cycles == plain.Cycles {
		t.Log("note: drains happened to cost zero cycles at this scale")
	}
	if a.Counters["ckpt.taken"] == 0 {
		t.Fatal("checkpointed run reports zero checkpoints")
	}
	if plain.Counters["ckpt.taken"] != 0 {
		t.Fatal("uncheckpointed run reports checkpoints")
	}
}

// TestMidRunRestoreIntoAheadMachineRejected: restoring a snapshot into a
// machine that has already simulated past the snapshot's cycle must fail
// loudly rather than rewind time.
func TestMidRunRestoreIntoAheadMachineRejected(t *testing.T) {
	_, snaps := ckptRun(t, "hmmer", defense.Insecure(), 0.1, 2048, nil)
	sys := figures.BuildSystem(simtest.MustSpec(t, "hmmer"), defense.Insecure(), 0.1)
	if err := sys.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Drive the fresh machine beyond the first snapshot's cycle, then
	// quiesce it again so only the clock check can object.
	sys.ResumeFetch()
	if _, err := sys.RunUntilHalt(10_000_000); err != nil {
		t.Fatal(err)
	}
	if err := sys.RestoreSnapshot(snaps[0]); err == nil {
		t.Fatal("restored an old snapshot into a machine further along in time")
	}
}

// TestMidRunCheckpointMultiCore extends the differential property to the
// 4-core full-system Parsec configuration: timer-driven domain switches,
// coherence traffic and filter state all in the snapshot.
func TestMidRunCheckpointMultiCore(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	for _, schName := range []string{"insecure", "muontrap"} {
		sch, err := defense.ByName(schName)
		if err != nil {
			t.Fatal(err)
		}
		golden, snaps := ckptRun(t, "canneal", sch, 0.05, 8192, nil)
		if len(snaps) == 0 {
			t.Fatalf("%s: no checkpoints taken", schName)
		}
		res, _ := ckptRun(t, "canneal", sch, 0.05, 8192, snaps[len(snaps)/2])
		simtest.ResultsEqual(t, schName, golden, res)
	}
}
