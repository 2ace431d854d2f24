package figures

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/defense"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// This file is the experiment executor: the one scheduling / caching /
// snapshot-forking path every matrix in the repository goes through. The
// figure harness (Fig3..Fig9) and the public muontrap.Runner both compile
// their work down to []Job and hand it to an Executor, so worker bounding,
// context cancellation, run memoization, the disk cache and warm-snapshot
// forking behave identically whether a caller asks for a paper figure or
// a custom sweep.

// Job is one cell of an experiment matrix: a workload under a scheme at
// the sizing carried in Opt. Series/Work name the cell for aggregation
// and error reporting. Its identity — what the memo map, the disk cache
// and the checkpoint chain key it by — is newRunKey(job).
type Job struct {
	Spec   workload.Spec
	Scheme defense.Scheme
	Opt    Options

	Series string
	Work   string

	// Attack, when non-empty, marks a security-matrix cell and names its
	// scenario (Spec is zero; the run itself lives in Custom, built by
	// AttackJob). Result consumers use it to route the cell's counters
	// through DecodeAttackCounters instead of reading them as
	// microarchitectural statistics.
	Attack string

	// Custom, when non-nil, replaces the workload run: an attack cell's
	// run (AttackJob).
	Custom func(ctx context.Context) (sim.RunResult, error)

	// subject, when set, is what the cell's key names in place of
	// Spec.Name (an attack cell's scenario encoding). l0dSize/l0dAssoc,
	// when set, replace the data filter cache geometry (the Fig 5/6
	// cells, built by buildSweep).
	subject  string
	l0dSize  uint64
	l0dAssoc int
}

// run executes the cell under its completed key.
func (j Job) run(ctx context.Context, key runKey) (sim.RunResult, error) {
	if j.Custom != nil {
		return j.Custom(ctx)
	}
	if j.l0dSize != 0 {
		return forkOrRun(ctx, j.Spec, j.Opt, buildSweep(j.Spec, j.Scheme, j.l0dSize, j.l0dAssoc, j.Opt), key)
	}
	return forkOrRun(ctx, j.Spec, j.Opt, buildRun(j.Spec, j.Scheme, j.Opt), key)
}

// Outcome is one successfully completed Job with its result. (Failures
// never surface as outcomes: the first job error aborts Execute.)
type Outcome struct {
	Job Job
	Res sim.RunResult
}

// Executor runs jobs over a bounded worker pool. The zero value is ready
// to use (Workers defaults to GOMAXPROCS).
type Executor struct {
	// Workers caps concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// OnResult, when non-nil, streams each successfully completed job.
	// Calls are serialized; completion order is nondeterministic under
	// more than one worker.
	OnResult func(Outcome)
}

// Execute runs every job and returns outcomes in job order. The first
// job error cancels the remaining work and is returned (wrapped with the
// failing cell's series/work); a cancelled ctx surfaces as ctx.Err(), so
// errors.Is(err, context.Canceled) holds. Individual simulations observe
// cancellation mid-run through the sim cycle loop.
func (e *Executor) Execute(ctx context.Context, jobs []Job) ([]Outcome, error) {
	if len(jobs) == 0 {
		return nil, ctx.Err()
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	outs := make([]Outcome, len(jobs))
	idxCh := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards outs and firstErr
		cbMu     sync.Mutex // serializes OnResult without blocking workers' bookkeeping
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				j := jobs[i]
				res, err := e.runJob(runCtx, j)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s/%s: %w", j.Series, j.Work, err)
						cancel()
					}
					mu.Unlock()
					continue
				}
				out := Outcome{Job: j, Res: res}
				mu.Lock()
				outs[i] = out
				mu.Unlock()
				if e.OnResult != nil {
					cbMu.Lock()
					e.OnResult(out)
					cbMu.Unlock()
				}
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case idxCh <- i:
		case <-runCtx.Done():
			// Stop feeding; in-flight jobs unwind via their own ctx check.
			break feed
		}
	}
	close(idxCh)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return outs, nil
}

// runJob executes one cell through the shared memoization/fork path.
func (e *Executor) runJob(ctx context.Context, j Job) (sim.RunResult, error) {
	if err := ctx.Err(); err != nil {
		return sim.RunResult{}, err
	}
	key, err := newRunKey(j)
	if err != nil {
		return sim.RunResult{}, err
	}
	cellStart := time.Now()
	res, err := cachedRun(ctx, j.Opt, key, func(ctx context.Context) (sim.RunResult, error) {
		return j.run(ctx, key)
	})
	if err == nil {
		// Cell wall time includes cache lookups and any singleflight wait:
		// it is what a caller of the executor actually experiences per cell.
		telemetry.ActiveSimProfiler().RecordCellSeconds(time.Since(cellStart).Seconds())
	}
	return res, err
}

// ctxErr reports whether err is a context cancellation/deadline error —
// results of such runs are aborted, not wrong, and must never be cached.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
