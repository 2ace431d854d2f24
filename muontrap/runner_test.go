package muontrap_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/simtest"
	"repro/muontrap"
)

// sweepSchemes is one golden row's worth of protection configurations:
// the six schemes the golden tests pin.
var sweepSchemes = []muontrap.Scheme{
	"insecure", "muontrap", "invisispec-spectre", "invisispec-future",
	"stt-spectre", "stt-future",
}

// TestSweepParallelBitIdenticalToSequential is the service-layer
// determinism gate: a 4-worker sweep over two workloads × all six golden
// schemes must agree bit-for-bit — cycles, instructions and every
// counter — with fresh, unmemoized sequential runs of the same
// configurations. Run under -race in CI, this also exercises the worker
// pool for data races.
func TestSweepParallelBitIdenticalToSequential(t *testing.T) {
	workloads := []muontrap.Workload{"hmmer", "gobmk"}
	const scale = 0.05

	r := muontrap.NewRunner(muontrap.WithWorkers(4))
	sweep, err := r.Sweep(context.Background(), muontrap.Sweep{
		Workloads: workloads,
		Schemes:   sweepSchemes,
		Scales:    []float64{scale},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Runs) != len(workloads)*len(sweepSchemes) {
		t.Fatalf("sweep returned %d runs, want %d", len(sweep.Runs), len(workloads)*len(sweepSchemes))
	}

	seq := muontrap.NewRunner(muontrap.WithWorkers(1))
	i := 0
	for _, w := range workloads {
		for _, s := range sweepSchemes {
			got := sweep.Runs[i]
			i++
			if got.Workload != w || got.Scheme != s || got.Scale != scale {
				t.Fatalf("run %d identity = %s/%s@%g, want %s/%s@%g (declaration order broken)",
					i-1, got.Workload, got.Scheme, got.Scale, w, s, scale)
			}
			// Fresh sequential simulation: Runner.Run never memoizes, so
			// this cannot share state with the sweep's cached cells.
			want, err := seq.Run(context.Background(),
				muontrap.RunSpec{Workload: w, Scheme: s, Scale: scale})
			if err != nil {
				t.Fatalf("%s/%s: %v", w, s, err)
			}
			if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
				t.Fatalf("%s/%s: sweep %d cycles / %d insts, sequential %d / %d",
					w, s, got.Cycles, got.Instructions, want.Cycles, want.Instructions)
			}
			if len(got.Counters) != len(want.Counters) {
				t.Fatalf("%s/%s: counter sets differ: %d vs %d", w, s, len(got.Counters), len(want.Counters))
			}
			for k, v := range want.Counters {
				if got.Counters[k] != v {
					t.Fatalf("%s/%s: counter %s: sweep %d, sequential %d", w, s, k, got.Counters[k], v)
				}
			}
		}
	}
}

// TestSweepDeduplicatesCells: duplicate matrix cells are simulated once —
// both occupy their declared position with identical results.
func TestSweepDeduplicatesCells(t *testing.T) {
	r := muontrap.NewRunner(muontrap.WithWorkers(2))
	sweep, err := r.Sweep(context.Background(), muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer", "hmmer"},
		Schemes:   []muontrap.Scheme{"insecure"},
		Scales:    []float64{0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(sweep.Runs))
	}
	if sweep.Runs[0].Cycles != sweep.Runs[1].Cycles {
		t.Fatal("duplicate cells diverged")
	}
}

// TestRunCancelledMidSimulation: cancelling the context mid-run aborts
// the simulation promptly and surfaces as context.Canceled.
func TestRunCancelledMidSimulation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(25 * time.Millisecond)
		cancel()
	}()
	r := muontrap.NewRunner()
	start := time.Now()
	// mcf at scale 25 simulates far longer than the cancellation delay.
	_, err := r.Run(ctx, muontrap.RunSpec{Workload: "mcf", Scheme: "insecure", Scale: 25})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestSweepCancelledBeforeStart: an already-cancelled context fails the
// sweep without simulating, and a later sweep of the same cells under a
// live context succeeds (cancellation never poisons the memoization).
func TestSweepCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := muontrap.NewRunner(muontrap.WithWorkers(2))
	spec := muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"},
		Schemes:   []muontrap.Scheme{"insecure", "muontrap"},
		Scales:    []float64{0.05},
	}
	if _, err := r.Sweep(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	sweep, err := r.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("sweep after cancellation failed: %v", err)
	}
	if len(sweep.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(sweep.Runs))
	}
}

// TestSweepStreamsProgress: each completed cell reaches the WithProgress
// callback with a consistent Done/Total count and a self-describing run.
func TestSweepStreamsProgress(t *testing.T) {
	var updates []muontrap.Progress
	r := muontrap.NewRunner(
		muontrap.WithWorkers(2),
		muontrap.WithProgress(func(p muontrap.Progress) { updates = append(updates, p) }),
	)
	_, err := r.Sweep(context.Background(), muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"},
		Schemes:   []muontrap.Scheme{"insecure", "muontrap"},
		Scales:    []float64{0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != 2 {
		t.Fatalf("got %d progress updates, want 2", len(updates))
	}
	for i, p := range updates {
		if p.Done != i+1 || p.Total != 2 {
			t.Fatalf("update %d: Done/Total = %d/%d", i, p.Done, p.Total)
		}
		if p.Run.Workload != "hmmer" || p.Run.Cycles == 0 {
			t.Fatalf("update %d: run not self-describing: %+v", i, p.Run)
		}
	}
}

// TestSweepValidatesUpfront: an unknown identifier anywhere in the matrix
// fails the sweep with the matching sentinel before any simulation.
func TestSweepValidatesUpfront(t *testing.T) {
	r := muontrap.NewRunner()
	if _, err := r.Sweep(context.Background(), muontrap.Sweep{
		Workloads: []muontrap.Workload{"nope"},
		Schemes:   []muontrap.Scheme{"insecure"},
	}); !errors.Is(err, muontrap.ErrUnknownWorkload) {
		t.Fatalf("err = %v, want ErrUnknownWorkload", err)
	}
	if _, err := r.Sweep(context.Background(), muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"},
		Schemes:   []muontrap.Scheme{"nope"},
	}); !errors.Is(err, muontrap.ErrUnknownScheme) {
		t.Fatalf("err = %v, want ErrUnknownScheme", err)
	}
	if _, err := r.Run(context.Background(), muontrap.RunSpec{Workload: "nope"}); !errors.Is(err, muontrap.ErrUnknownWorkload) {
		t.Fatalf("Run err should wrap ErrUnknownWorkload")
	}
	// A declared scale of zero or below is refused: it would run at the
	// default scale while being keyed apart from it.
	for _, scale := range []float64{0, -1} {
		if _, err := r.Sweep(context.Background(), muontrap.Sweep{
			Workloads: []muontrap.Workload{"hmmer"},
			Schemes:   []muontrap.Scheme{"insecure"},
			Scales:    []float64{scale},
		}); err == nil || !strings.Contains(err.Error(), "scale must be positive") {
			t.Fatalf("Sweep at scale %g: err = %v, want a refusal", scale, err)
		}
	}
}

// TestSweepCheckpointResumeAcrossRunners is the public-API crash-resume
// gate: a checkpointing sweep is interrupted only after its first
// mid-run checkpoint has verifiably been persisted (the test polls the
// snapshot store for the latest-checkpoint ref before cancelling), its
// result cache is wiped (exactly what a crash leaves: checkpoints but no
// result), and a fresh Runner with WithResume must then restore from the
// persisted checkpoint — a restore failure surfaces as an error — and
// finish bit-identical to an uninterrupted sweep at the same cadence.
// (That a resume re-simulates only the tail, rather than silently
// falling back to a cold start, is pinned at the layer below by the
// figures crash-resume tests, which count checkpoints across the crash.)
func TestSweepCheckpointResumeAcrossRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	figures.ResetRunCache()
	defer figures.ResetRunCache()

	sweep := muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"},
		Schemes:   []muontrap.Scheme{"muontrap"},
	}
	const cadence = 2000
	opts := func(dir string, extra ...muontrap.RunnerOption) []muontrap.RunnerOption {
		return append([]muontrap.RunnerOption{
			muontrap.WithScale(0.3),
			muontrap.WithCacheDir(dir),
			muontrap.WithCheckpointEvery(cadence),
		}, extra...)
	}

	// Uninterrupted reference.
	fullDir := t.TempDir()
	full, err := muontrap.NewRunner(opts(fullDir)...).Sweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel as soon as the first checkpoint slot appears
	// on disk, so the kill provably happens after persistence began. (If
	// the run outraces the poll and completes, the wiped result cache
	// below still forces the resume branch from the final checkpoint.)
	figures.ResetRunCache()
	crashDir := t.TempDir()
	snapDir := filepath.Join(crashDir, "snapshots")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for {
			if ents, err := os.ReadDir(snapDir); err == nil {
				for _, e := range ents {
					if strings.Contains(e.Name(), ".slot") {
						cancel()
						return
					}
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	sweepErr := func() error {
		_, err := muontrap.NewRunner(opts(crashDir)...).Sweep(ctx, sweep)
		return err
	}()
	cancel()
	if sweepErr != nil && !errors.Is(sweepErr, context.Canceled) {
		t.Fatalf("interrupted sweep: %v", sweepErr)
	}

	// The crash window: checkpoints persisted, result never recorded. (A
	// sweep that outraced the cancellation retired its chain on
	// completion; the resume leg then legitimately exercises the
	// cold-start fallback instead — rare, and logged.)
	if sweepErr == nil {
		t.Log("sweep completed before cancellation; resume leg covers the cold fallback only")
	} else {
		slots := 0
		ents, err := os.ReadDir(snapDir)
		if err != nil {
			t.Fatalf("no snapshot store after interrupted run: %v", err)
		}
		for _, e := range ents {
			if strings.Contains(e.Name(), ".slot") {
				slots++
			}
		}
		if slots == 0 {
			t.Fatal("interrupted run persisted no checkpoint")
		}
	}
	if err := os.RemoveAll(filepath.Join(crashDir, "results")); err != nil {
		t.Fatal(err)
	}

	// Resume with a fresh Runner (a new process, in effect). With a
	// resolvable checkpoint, no cached result and Resume on, the resume
	// branch must restore it; a restore failure is a hard error here.
	figures.ResetRunCache()
	res, err := muontrap.NewRunner(opts(crashDir, muontrap.WithResume(true))...).Sweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := full.Find("hmmer", "muontrap")
	if !ok {
		t.Fatal("full sweep missing its one cell")
	}
	b, ok := res.Find("hmmer", "muontrap")
	if !ok {
		t.Fatal("resumed sweep missing its one cell")
	}
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Fatalf("resumed sweep differs: %d/%d vs %d/%d", a.Cycles, a.Instructions, b.Cycles, b.Instructions)
	}
	simtest.CountersEqual(t, "sweep-resume", a.Counters, b.Counters)
}
