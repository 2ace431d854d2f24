package figures

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/workload"
)

// The differential checkpoint suite: for every workload in both suites,
// under all six compared schemes (single-core SPEC and the 4-core
// full-system Parsec configuration), run with periodic drain-to-quiesce
// checkpoints, then restore at several mid-run points and prove the
// continued run finishes with bit-identical cycles, instructions and
// every statistics counter. This is the gate that lets cmd/figures
// -resume claim byte-identical tables after a crash.

// diffEvery is the checkpoint cadence for the differential suite: small
// enough that even the shortest tiny-scale run crosses several
// checkpoints.
const diffEvery = 500

// goldenWithCheckpoints runs a cell to completion, collecting every
// mid-run snapshot.
func goldenWithCheckpoints(t *testing.T, spec workload.Spec, sch defense.Scheme, opt Options) (sim.RunResult, []*checkpoint.Snapshot) {
	t.Helper()
	sys := BuildSystem(spec, sch, opt.Scale)
	var snaps []*checkpoint.Snapshot
	res, err := sys.RunUntilHaltCkpt(context.Background(), opt.MaxCycles, diffEvery,
		func(s *checkpoint.Snapshot) error {
			// The run refills s at its next checkpoint: keep a copy.
			kept, err := checkpoint.Decode(s.Encode())
			snaps = append(snaps, kept)
			return err
		})
	if err != nil {
		t.Fatalf("%s/%s golden: %v", spec.Name, sch.Name, err)
	}
	return res, snaps
}

// restorePoints picks the mid-run points to resume from: the earliest,
// a middle and the latest checkpoint (deduplicated for short runs).
func restorePoints(n int) []int {
	switch {
	case n <= 0:
		return nil
	case n == 1:
		return []int{0}
	case n == 2:
		return []int{0, 1}
	default:
		return []int{0, n / 2, n - 1}
	}
}

func TestDifferentialCheckpointRestoreAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	opt := tinyOptions()
	specs := append(workload.SPEC2006(), workload.Parsec()...)
	if simtest.RaceEnabled {
		// Under the race detector the full 33×6 matrix costs several
		// minutes while exercising no concurrency the small subset does
		// not; keep one workload per distinct access pattern plus both
		// Parsec coherence shapes.
		keep := map[string]bool{
			"hmmer": true, "astar": true, "bwaves": true, "cactusADM": true,
			"soplex": true, "blackscholes": true, "ferret": true,
		}
		kept := specs[:0]
		for _, sp := range specs {
			if keep[sp.Name] {
				kept = append(kept, sp)
			}
		}
		specs = kept
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			for _, sch := range sixSchemes() {
				golden, snaps := goldenWithCheckpoints(t, sp, sch, opt)
				if len(snaps) == 0 {
					t.Fatalf("%s: run too short for the %d-cycle cadence (%d cycles): no checkpoints to test",
						sch.Name, diffEvery, golden.Cycles)
				}
				for _, k := range restorePoints(len(snaps)) {
					sys := BuildSystem(sp, sch, opt.Scale)
					if err := sys.RestoreSnapshot(snaps[k]); err != nil {
						t.Fatalf("%s: restore checkpoint %d: %v", sch.Name, k, err)
					}
					res, err := sys.RunUntilHaltCkpt(context.Background(), opt.MaxCycles, diffEvery, nil)
					if err != nil {
						t.Fatalf("%s: run from checkpoint %d: %v", sch.Name, k, err)
					}
					simtest.ResultsEqual(t, sch.Name+"@ckpt"+string(rune('0'+k%10)), golden, res)
				}
			}
		})
	}
}

// errSimulatedCrash stands in for a process kill in the crash-resume
// test: it aborts the run immediately after a checkpoint is persisted,
// exactly the window a real crash leaves behind.
var errSimulatedCrash = errors.New("simulated crash after checkpoint")

// TestCrashResumeProducesIdenticalResult exercises the full production
// path (RunOne → forkOrRun → checkpoint store): a run is "killed" right
// after its second mid-run checkpoint lands on disk, then re-invoked with
// Resume — and the resumed result is bit-identical to an uninterrupted
// run at the same cadence, having re-simulated only the tail.
func TestCrashResumeProducesIdenticalResult(t *testing.T) {
	defer ResetRunCache()
	ResetRunCache()
	spec := simtest.MustSpec(t, "hmmer")
	sch := defense.MuonTrap()

	opt := tinyOptions()
	opt.Scale = 0.1
	opt.CheckpointEvery = 2000

	// Uninterrupted reference in its own cache dir, counting checkpoints.
	optFull := opt
	optFull.CacheDir = t.TempDir()
	fullCkpts := 0
	optFull.ckptSpy = func(n int) error { fullCkpts = n; return nil }
	full, err := RunOne(context.Background(), spec, sch, optFull)
	if err != nil {
		t.Fatal(err)
	}
	if fullCkpts < 3 {
		t.Fatalf("test premise broken: only %d checkpoints in the full run", fullCkpts)
	}

	// "Crash" after the second checkpoint is persisted.
	ResetRunCache()
	crashDir := t.TempDir()
	optCrash := opt
	optCrash.CacheDir = crashDir
	optCrash.ckptSpy = func(n int) error {
		if n == 2 {
			return errSimulatedCrash
		}
		return nil
	}
	if _, err := RunOne(context.Background(), spec, sch, optCrash); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("crash run: got %v, want simulated crash", err)
	}

	// The latest persisted checkpoint must be the chain's newest.
	st, err := checkpoint.NewStore(filepath.Join(crashDir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	snapHash, err := snapHashFor(Job{Spec: spec, Opt: optCrash})
	if err != nil {
		t.Fatal(err)
	}
	crashKey := runKey{workload: spec.Name, scheme: sch.Name, scale: optCrash.Scale,
		maxCycles: optCrash.MaxCycles, snapHash: snapHash, every: optCrash.CheckpointEvery}
	if snap, g, err := st.Latest(midrunKey(crashKey)); snap == nil || g != 2 {
		t.Fatalf("crashed run's chain: newest checkpoint %d (%v), want #2", g, err)
	}
	// Superseded checkpoints are overwritten in place: the chain is its two
	// slots, whatever its length, and nothing else is left on disk.
	ents, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	slots := 0
	for _, e := range ents {
		if strings.Contains(e.Name(), ".slot") {
			slots++
		}
	}
	if slots != 2 || len(ents) != 2 {
		t.Fatalf("crashed run left %d files (%d slots) on disk, want the chain's 2 slots", len(ents), slots)
	}

	// Resume: bit-identical final result, and only the tail re-simulated
	// (the resumed run crosses strictly fewer checkpoint boundaries).
	ResetRunCache()
	optResume := opt
	optResume.CacheDir = crashDir
	optResume.Resume = true
	resumeCkpts := 0
	optResume.ckptSpy = func(n int) error { resumeCkpts = n; return nil }
	res, err := RunOne(context.Background(), spec, sch, optResume)
	if err != nil {
		t.Fatal(err)
	}
	simtest.ResultsEqual(t, "crash-resume", full, res)
	if resumeCkpts != fullCkpts-2 {
		t.Fatalf("resumed run took %d checkpoints, want %d (crash was after #2 of %d)",
			resumeCkpts, fullCkpts-2, fullCkpts)
	}
	if got := res.Counters["ckpt.taken"]; got != uint64(fullCkpts) {
		t.Fatalf("resumed run reports %d total checkpoints, uninterrupted took %d", got, fullCkpts)
	}
	// Completion retires the chain: no dead full-machine images remain
	// once the result is cached.
	left, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("completed resume left %d files in the snapshot store, want 0", len(left))
	}
}

// TestResumeWithWarmupForking proves the crash-resume and warm-snapshot
// layers compose: a run that forks from a warm snapshot, checkpoints
// mid-run, crashes and resumes still matches the uninterrupted
// warmed-and-checkpointed run bit-for-bit.
func TestResumeWithWarmupForking(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer ResetRunCache()
	ResetRunCache()
	spec := simtest.MustSpec(t, "hmmer")
	sch := defense.MuonTrap()

	opt := tinyOptions()
	opt.Scale = 0.1
	opt.WarmupInsts = 3000
	opt.CheckpointEvery = 2000

	optFull := opt
	optFull.CacheDir = t.TempDir()
	full, err := RunOne(context.Background(), spec, sch, optFull)
	if err != nil {
		t.Fatal(err)
	}

	ResetRunCache()
	crashDir := t.TempDir()
	optCrash := opt
	optCrash.CacheDir = crashDir
	optCrash.ckptSpy = func(n int) error {
		if n == 1 {
			return errSimulatedCrash
		}
		return nil
	}
	if _, err := RunOne(context.Background(), spec, sch, optCrash); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("crash run: got %v, want simulated crash", err)
	}

	ResetRunCache()
	optResume := opt
	optResume.CacheDir = crashDir
	optResume.Resume = true
	res, err := RunOne(context.Background(), spec, sch, optResume)
	if err != nil {
		t.Fatal(err)
	}
	simtest.ResultsEqual(t, "warm+resume", full, res)
	if got := res.Counters["warmup.insts"]; got != uint64(opt.WarmupInsts) {
		t.Fatalf("resumed run lost the warm-up baseline: warmup.insts = %d", got)
	}
}

// TestCheckpointPersistenceFailureIsLoud: when the snapshot store cannot
// be created (here: CacheDir/snapshots is blocked by a regular file),
// the run must still complete — but the lost crash-resume durability
// must be reported, never discovered after a crash.
func TestCheckpointPersistenceFailureIsLoud(t *testing.T) {
	defer ResetRunCache()
	ResetRunCache()
	spec := simtest.MustSpec(t, "hmmer")

	var warnings []string
	oldWarnf := warnf
	warnf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	defer func() { warnf = oldWarnf }()

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshots"), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	opt := tinyOptions()
	opt.CacheDir = dir
	opt.CheckpointEvery = 1000
	res, err := RunOne(context.Background(), spec, defense.Insecure(), opt)
	if err != nil {
		t.Fatalf("run must survive a broken snapshot store: %v", err)
	}
	if res.Counters["ckpt.taken"] == 0 {
		t.Fatal("run took no checkpoints")
	}
	if len(warnings) == 0 {
		t.Fatal("broken snapshot store produced no warning")
	}
	if !strings.Contains(warnings[0], "NOT be persisted") {
		t.Fatalf("warning does not say durability is lost: %q", warnings[0])
	}
}

// TestCheckpointCadenceIsPartOfTheCacheKey: results at different cadences
// are distinct experiments (drains perturb timing deterministically) and
// must never share a disk-cache entry.
func TestCheckpointCadenceIsPartOfTheCacheKey(t *testing.T) {
	a := runKey{workload: "hmmer", scheme: "muontrap", scale: 0.1, maxCycles: 1000}
	b := a
	b.every = 4096
	if diskKey(a) == diskKey(b) {
		t.Fatal("cadence does not enter the disk cache key")
	}
	if a == b {
		t.Fatal("cadence does not enter the memoization key")
	}
}

// TestNegativeCadenceMeansDisabled: a nonsensical negative
// CheckpointEvery must behave exactly like 0 — same result, same cache
// identity, no silent never-firing cadence.
func TestNegativeCadenceMeansDisabled(t *testing.T) {
	defer ResetRunCache()
	ResetRunCache()
	spec := simtest.MustSpec(t, "hmmer")

	plain := tinyOptions()
	ref, err := RunOne(context.Background(), spec, defense.Insecure(), plain)
	if err != nil {
		t.Fatal(err)
	}
	neg := tinyOptions()
	neg.CheckpointEvery = -5
	res, err := RunOne(context.Background(), spec, defense.Insecure(), neg)
	if err != nil {
		t.Fatal(err)
	}
	simtest.ResultsEqual(t, "negative cadence", ref, res)
	if res.Counters["ckpt.taken"] != 0 {
		t.Fatalf("negative cadence took %d checkpoints", res.Counters["ckpt.taken"])
	}
	a := runKey{workload: "hmmer", every: 0}
	b := runKey{workload: "hmmer", every: neg.ckptEvery()}
	if diskKey(a) != diskKey(b) {
		t.Fatal("normalized negative cadence must share the disabled cache identity")
	}
}

// TestMidrunKeyCoversRunIdentity: the checkpoint-chain key is derived
// from the same runKey serialization the result cache uses, so any field
// that distinguishes cached results — scheme, geometry, warm-up, cadence,
// scale — must also distinguish checkpoint chains.
func TestMidrunKeyCoversRunIdentity(t *testing.T) {
	base := runKey{workload: "hmmer", scheme: "muontrap", scale: 0.02,
		maxCycles: 20_000_000, every: 1000}
	k := midrunKey(base)
	mutations := map[string]func(r *runKey){
		"scheme":    func(r *runKey) { r.scheme = "stt-spectre" },
		"workload":  func(r *runKey) { r.workload = "astar" },
		"snapHash":  func(r *runKey) { r.snapHash = "deadbeef" },
		"warmup":    func(r *runKey) { r.warmup = 500 },
		"cadence":   func(r *runKey) { r.every = 2000 },
		"scale":     func(r *runKey) { r.scale = 0.5 },
		"geometry":  func(r *runKey) { r.l0dSize = 4096; r.l0dAssoc = 8 },
		"maxCycles": func(r *runKey) { r.maxCycles = 1 },
	}
	for name, mutate := range mutations {
		other := base
		mutate(&other)
		if midrunKey(other) == k {
			t.Fatalf("midrun key ignores %s", name)
		}
	}
	// Derivation from diskKey also means a result-cache key change can
	// never silently leave checkpoint chains colliding.
	if midrunKey(base) == diskKey(base) {
		t.Fatal("midrun and result keys must not collide in the ref namespace")
	}
}
