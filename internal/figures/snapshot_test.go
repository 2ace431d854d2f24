package figures

import (
	"context"
	"testing"

	"repro/internal/defense"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/workload"
)

// sixSchemes is one figure row's worth of runs: the insecure baseline plus
// the five compared protections (paper Figures 3/4).
func sixSchemes() []defense.Scheme {
	return append([]defense.Scheme{defense.Insecure()}, defense.Comparison()...)
}

func resultsEqual(t *testing.T, label string, a, b sim.RunResult) {
	t.Helper()
	simtest.ResultsEqual(t, label, a, b)
}

// TestSnapshotForkMatchesColdRun is the determinism gate for the
// checkpoint subsystem: for every scheme of a figure row, a run forked
// from the shared warm snapshot (built once, on an *unprotected* machine)
// must reproduce — bit-exactly, down to every counter — a cold run that
// performs the same warm-up in-place on that scheme's own machine.
func TestSnapshotForkMatchesColdRun(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer ResetRunCache()
	ResetRunCache()
	spec, _ := workload.ByName("hmmer")
	opt := tinyOptions()
	opt.WarmupInsts = 3000

	for _, sch := range sixSchemes() {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			// Cold: warm-up executed in-place on this scheme's machine.
			coldSys := buildRun(spec, sch, opt)
			if n := coldSys.Warmup(opt.WarmupInsts); n != opt.WarmupInsts {
				t.Fatalf("warm-up executed %d insts, want %d", n, opt.WarmupInsts)
			}
			cold, err := coldSys.RunUntilHalt(opt.MaxCycles)
			if err != nil {
				t.Fatal(err)
			}
			// Forked: restore the shared (insecure-machine) snapshot.
			forked, err := RunOne(context.Background(), spec, sch, opt)
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, sch.Name, cold, forked)
		})
	}
}

// TestSnapshotForkAcrossSyscall pins the scheme-independence of warm-up
// syscall handling: the warm-up region deliberately spans syscalls (astar
// issues one every 1200 iterations), and the forked run must still match
// a cold run on a FilterProtect machine counter-for-counter. A
// mode-gated domain switch inside warm-up — flushing (and counting)
// filter state only on protected machines — would fail exactly here.
func TestSnapshotForkAcrossSyscall(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer ResetRunCache()
	ResetRunCache()
	spec, _ := workload.ByName("astar")
	opt := tinyOptions()
	// astar at scale 0.6 commits ~172k instructions with its single
	// syscall at iteration 1199 of 1560 (~77%, ~132k insts in); a 150k
	// warm-up therefore crosses it and leaves a measured tail.
	opt.Scale = 0.6
	opt.WarmupInsts = 150_000

	// Prove the premise: the full program contains a syscall, and the
	// warm-up region swallows it (so the measured region reports none).
	full, err := RunOne(context.Background(), spec, defense.Insecure(), Options{Scale: opt.Scale, MaxCycles: opt.MaxCycles})
	if err != nil {
		t.Fatal(err)
	}
	if full.Counters["core0.syscalls"] == 0 {
		t.Fatal("test premise broken: astar at this scale issues no syscall")
	}

	for _, name := range []string{"muontrap", "insecure"} {
		sch, err := defense.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		coldSys := buildRun(spec, sch, opt)
		coldSys.Warmup(opt.WarmupInsts)
		cold, err := coldSys.RunUntilHalt(opt.MaxCycles)
		if err != nil {
			t.Fatal(err)
		}
		if got := cold.Counters["core0.syscalls"]; got != 0 {
			t.Fatalf("%s: syscall escaped the warm-up region (%d measured)", name, got)
		}
		forked, err := RunOne(context.Background(), spec, sch, opt)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, name, cold, forked)
	}
}

// TestSnapshotForkMultiCore extends the fork-equality gate to a 4-core
// Parsec run with locking, sharing and timer-driven domain switches.
func TestSnapshotForkMultiCore(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer ResetRunCache()
	ResetRunCache()
	spec, _ := workload.ByName("canneal")
	opt := tinyOptions()
	opt.WarmupInsts = 4000

	for _, name := range []string{"insecure", "muontrap"} {
		sch, err := defense.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		coldSys := buildRun(spec, sch, opt)
		coldSys.Warmup(opt.WarmupInsts)
		cold, err := coldSys.RunUntilHalt(opt.MaxCycles)
		if err != nil {
			t.Fatal(err)
		}
		forked, err := RunOne(context.Background(), spec, sch, opt)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, name, cold, forked)
	}
}

// TestWarmupChangesMeasuredRegion sanity-checks that warm-up actually
// removes work from the measured region rather than being a no-op.
func TestWarmupChangesMeasuredRegion(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer ResetRunCache()
	ResetRunCache()
	spec, _ := workload.ByName("hmmer")
	opt := tinyOptions()
	coldFull, err := RunOne(context.Background(), spec, defense.Insecure(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.WarmupInsts = 3000
	warm, err := RunOne(context.Background(), spec, defense.Insecure(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Committed >= coldFull.Committed {
		t.Fatalf("warm-up did not shrink the measured region: %d vs %d committed",
			warm.Committed, coldFull.Committed)
	}
	if got := warm.Counters["warmup.insts"]; got != 3000 {
		t.Fatalf("warmup.insts counter = %d, want 3000", got)
	}
}

// TestDiskCacheResumesAcrossProcessLifetimes verifies the disk layer:
// after dropping all in-process memoization (as a new invocation would),
// a warm cache directory re-emits the previously computed result without
// re-simulating, and the result is bit-identical.
func TestDiskCacheResumesAcrossProcessLifetimes(t *testing.T) {
	defer ResetRunCache()
	ResetRunCache()
	dir := t.TempDir()
	opt := tinyOptions()
	opt.CacheDir = dir
	spec, _ := workload.ByName("hmmer")

	key := runKey{workload: spec.Name, scheme: "insecure",
		scale: opt.Scale, maxCycles: opt.MaxCycles}
	sims := 0
	run := func(ctx context.Context) (sim.RunResult, error) {
		sims++
		return RunOne(ctx, spec, defense.Insecure(), opt)
	}
	first, err := cachedRun(context.Background(), opt, key, run)
	if err != nil {
		t.Fatal(err)
	}
	if sims != 1 {
		t.Fatalf("first lookup simulated %d times", sims)
	}

	// Simulate a fresh process: drop the in-memory layer only.
	ResetRunCache()
	second, err := cachedRun(context.Background(), opt, key, run)
	if err != nil {
		t.Fatal(err)
	}
	if sims != 1 {
		t.Fatal("warm disk cache re-simulated")
	}
	resultsEqual(t, "disk", first, second)

	// A different key must miss.
	other := key
	other.scheme = "muontrap"
	if _, ok := diskGet(dir, diskKey(other)); ok {
		t.Fatal("disk cache hit for a different scheme")
	}
}

// TestWarmSnapshotDiskResume verifies warm snapshots themselves resume
// from the content-addressed store: a fresh process resolves the snapshot
// by input key and gets the same content hash.
func TestWarmSnapshotDiskResume(t *testing.T) {
	defer ResetRunCache()
	ResetRunCache()
	opt := tinyOptions()
	opt.WarmupInsts = 1000
	opt.CacheDir = t.TempDir()
	spec, _ := workload.ByName("hmmer")

	_, hash1, err := warmSnapshot(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	resetSnapCache() // fresh process
	snap, hash2, err := warmSnapshot(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if hash1 != hash2 {
		t.Fatalf("snapshot hash changed across resume: %s vs %s", hash1, hash2)
	}
	if snap.Hash() != hash2 {
		t.Fatal("loaded snapshot content does not match its hash")
	}
}
