package figures

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/defense"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestCachedRunCancellationNotPoisoning: a run that ends in a context
// error must be dropped from the memoization map, so a later attempt
// under a live context re-executes and succeeds.
func TestCachedRunCancellationNotPoisoning(t *testing.T) {
	defer ResetRunCache()
	ResetRunCache()
	key := runKey{workload: "w", scheme: "s", scale: 0.5}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := cachedRun(ctx, Options{}, key, func(ctx context.Context) (sim.RunResult, error) {
		<-ctx.Done()
		return sim.RunResult{}, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	runs := 0
	res, err := cachedRun(context.Background(), Options{}, key, func(context.Context) (sim.RunResult, error) {
		runs++
		return sim.RunResult{Cycles: 7}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 || res.Cycles != 7 {
		t.Fatalf("retry after cancellation did not re-execute: runs=%d res=%+v", runs, res)
	}
}

// TestCachedRunWaiterHonorsOwnContext: a goroutine waiting on someone
// else's in-flight run must stop waiting when its own ctx is cancelled,
// even though the owner keeps running.
func TestCachedRunWaiterHonorsOwnContext(t *testing.T) {
	defer ResetRunCache()
	ResetRunCache()
	key := runKey{workload: "w2", scheme: "s"}

	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		cachedRun(context.Background(), Options{}, key, func(context.Context) (sim.RunResult, error) {
			close(started)
			<-release
			return sim.RunResult{}, nil
		})
	}()
	<-started
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := cachedRun(ctx, Options{}, key, func(context.Context) (sim.RunResult, error) {
		t.Error("waiter must not execute the run")
		return sim.RunResult{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
}

// TestMemoryCacheHitsAreCounted: executing the same two cells three times
// misses the in-process memo twice and hits it four times, and the
// profiler's memory-layer series say so.
func TestMemoryCacheHitsAreCounted(t *testing.T) {
	defer ResetRunCache()
	ResetRunCache()
	reg := telemetry.NewRegistry()
	telemetry.EnableSimProfiling(reg)
	defer telemetry.DisableSimProfiling()
	jobs := make([]Job, 2)
	for i := range jobs {
		jobs[i] = Job{Series: "s", Work: "cell", Opt: Options{MaxCycles: i + 1},
			Custom: func(context.Context) (sim.RunResult, error) { return sim.RunResult{Cycles: 7}, nil }}
	}
	ex := Executor{Workers: 1}
	for range 3 {
		if _, err := ex.Execute(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		`muontrap_sim_cache_hits_total{layer="memory"} 4`,
		`muontrap_sim_cache_misses_total{layer="memory"} 2`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("scrape lacks %q:\n%s", want, rec.Body.String())
		}
	}
}

// TestExecutorCancelPropagates: cancelling the sweep context aborts
// in-flight jobs and surfaces as context.Canceled from Execute.
func TestExecutorCancelPropagates(t *testing.T) {
	defer ResetRunCache()
	ResetRunCache()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{Series: "s", Work: "block", Opt: Options{MaxCycles: i + 1},
			Custom: func(ctx context.Context) (sim.RunResult, error) {
				cancel() // first job to run cancels the whole sweep
				<-ctx.Done()
				return sim.RunResult{}, ctx.Err()
			}}
	}
	ex := Executor{Workers: 2}
	_, err := ex.Execute(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecutorFailFast: a failing job cancels the rest of the matrix and
// reports the failing cell.
func TestExecutorFailFast(t *testing.T) {
	defer ResetRunCache()
	ResetRunCache()
	boom := errors.New("boom")
	jobs := []Job{
		{Series: "a", Work: "bad", subject: "bad",
			Custom: func(context.Context) (sim.RunResult, error) { return sim.RunResult{}, boom }},
		{Series: "a", Work: "slow", subject: "slow",
			Custom: func(ctx context.Context) (sim.RunResult, error) {
				select {
				case <-ctx.Done():
					return sim.RunResult{}, ctx.Err()
				case <-time.After(10 * time.Second):
					return sim.RunResult{}, nil
				}
			}},
	}
	ex := Executor{Workers: 2}
	start := time.Now()
	_, err := ex.Execute(context.Background(), jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("failure did not cancel the in-flight sibling")
	}
}

// TestFigureTableBytesParallelVsSequential is the executor determinism
// gate: the same figure matrix produces byte-identical rendered tables
// whether cells run sequentially or on four workers (cache reset between,
// so both renderings are freshly simulated).
func TestFigureTableBytesParallelVsSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration")
	}
	var specs []workload.Spec
	for _, n := range []string{"hmmer", "povray"} {
		s, _ := workload.ByName(n)
		specs = append(specs, s)
	}
	render := func(workers int) string {
		ResetRunCache()
		opt := tinyOptions()
		opt.Parallelism = workers
		tbl, err := schemeFigure(context.Background(), "det", specs, defense.Comparison(), opt)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.String()
	}
	seq := render(1)
	par := render(4)
	ResetRunCache()
	if seq != par {
		t.Fatalf("parallel table differs from sequential:\n--- seq ---\n%s--- par ---\n%s", seq, par)
	}
}
