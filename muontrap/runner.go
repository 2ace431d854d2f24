package muontrap

import (
	"context"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/figures"
	"repro/internal/stats"
)

// Runner is the experiment service: it executes single runs, declarative
// sweeps and figure regenerations over a bounded worker pool, with
// context cancellation, result memoization (sweeps and figures), an
// optional disk cache, and optional warm-snapshot forking. A Runner is
// immutable after construction and safe for concurrent use.
type Runner struct {
	workers   int
	cacheDir  string
	warmup    int
	scale     float64
	maxCycles int
	ckptEvery int
	resume    bool
	progress  func(Progress)
	snapStore checkpoint.ChainStore
}

// RunnerOption configures a Runner at construction.
type RunnerOption func(*Runner)

// WithWorkers caps the number of concurrent simulations (0, the default,
// means GOMAXPROCS). It is the only host-parallelism setting: one
// simulation runs on one goroutine whatever its simulated core count, and
// the cells of a sweep or figure — which share no state — run side by
// side. More workers than host CPUs oversubscribes the host: each cell
// takes longer and the sweep finishes no sooner.
func WithWorkers(n int) RunnerOption { return func(r *Runner) { r.workers = n } }

// WithCacheDir backs the runner's sweep/figure memoization with a disk
// cache (results plus warm snapshots) keyed by the full run configuration
// and the simulator build fingerprint, so sweeps resume across process
// invocations. Empty (the default) keeps memoization in-process only.
func WithCacheDir(dir string) RunnerOption { return func(r *Runner) { r.cacheDir = dir } }

// WithWarmup architecturally fast-forwards each workload by insts
// instructions once, checkpoints the warmed machine, and forks every run
// of that workload from the restored snapshot. Zero (the default) runs
// from reset.
func WithWarmup(insts int) RunnerOption { return func(r *Runner) { r.warmup = insts } }

// WithCheckpointEvery drains each run to a quiescent boundary every n
// simulated cycles and snapshots the whole machine mid-detailed-
// simulation, persisting the checkpoint into the run's checkpoint chain in
// the cache directory's snapshot store (when WithCacheDir is set) so an
// interrupted sweep can crash-resume with WithResume. Draining costs
// deterministic simulated cycles, so the cadence is part of each run's
// identity: results are cached per cadence, and a resumed run is
// bit-identical to an uninterrupted run at the same cadence. Zero (the
// default) disables mid-run checkpoints.
func WithCheckpointEvery(n int) RunnerOption { return func(r *Runner) { r.ckptEvery = n } }

// WithResume restarts each run from its latest persisted mid-run
// checkpoint instead of from cold (or warmup-only) state. It requires
// WithCheckpointEvery and WithCacheDir with the same values the
// interrupted invocation used; with no matching checkpoint on disk it
// silently falls back to a cold start.
func WithResume(resume bool) RunnerOption { return func(r *Runner) { r.resume = resume } }

// WithSnapshotStore overrides where mid-run checkpoint chains live: st
// replaces the default CacheDir-local store. Fleet workers pass
// a checkpoint.Mirror (local disk plus a network store) so an interrupted
// cell's latest checkpoint can be fetched by any other machine; the
// checkpoint keying — and therefore which runs can resume from which
// checkpoints — is unchanged. Nil (the default) keeps checkpoints local.
func WithSnapshotStore(st checkpoint.ChainStore) RunnerOption {
	return func(r *Runner) { r.snapStore = st }
}

// WithProgress streams sweep progress: fn is called once per completed
// Sweep cell, serialized, from worker goroutines. Completion order is
// nondeterministic under more than one worker. (Figure regenerations do
// not stream; they report through the rendered table.)
func WithProgress(fn func(Progress)) RunnerOption { return func(r *Runner) { r.progress = fn } }

// WithScale sets the default workload trip-count multiplier used when a
// RunSpec or Sweep leaves Scale/Scales empty (default 0.15).
func WithScale(scale float64) RunnerOption { return func(r *Runner) { r.scale = scale } }

// WithMaxCycles sets the default per-run cycle bound used when a RunSpec
// or Sweep leaves MaxCycles zero (default 40M).
func WithMaxCycles(n int) RunnerOption { return func(r *Runner) { r.maxCycles = n } }

// NewRunner builds an experiment service with the given options.
func NewRunner(opts ...RunnerOption) *Runner {
	r := &Runner{}
	for _, o := range opts {
		o(r)
	}
	// The runner's defaults are what a sweep that declares none resolves to.
	def := Sweep{}.Resolve(r.scale, r.maxCycles)
	r.scale, r.maxCycles = def.Scales[0], def.MaxCycles
	return r
}

// options maps the runner's configuration and one run's sizing to the
// internal experiment options.
func (r *Runner) options(scale float64, maxCycles int) figures.Options {
	return figures.Options{
		Scale:           scale,
		MaxCycles:       maxCycles,
		Parallelism:     r.workers,
		WarmupInsts:     r.warmup,
		CacheDir:        r.cacheDir,
		CheckpointEvery: r.ckptEvery,
		Resume:          r.resume,
		SnapshotStore:   r.snapStore,
	}
}

// RunSpec selects one simulation run. Zero-valued Scale/MaxCycles inherit
// the runner's defaults; an empty Scheme means the insecure baseline.
type RunSpec struct {
	Workload  Workload
	Scheme    Scheme
	Scale     float64
	MaxCycles int
}

// RunResult is one completed run with its full identity, so streamed
// results are self-describing. Exactly one of Workload and Attack is set:
// an attack cell carries its verdict encoded in Result.Counters (decode
// with AttackVerdict) and reports no cycles or instructions.
type RunResult struct {
	Workload Workload   `json:"workload,omitempty"`
	Scheme   Scheme     `json:"scheme"`
	Scale    float64    `json:"scale,omitempty"`
	Attack   AttackName `json:"attack,omitempty"`
	Result
}

// Progress reports one completed run within a sweep or figure
// regeneration: Done of Total cells have finished, Run being the latest.
type Progress struct {
	Done  int       `json:"done"`
	Total int       `json:"total"`
	Run   RunResult `json:"run"`
}

// SweepResult aggregates a sweep: one RunResult per matrix cell, in
// declaration order (workload-major, then scheme, then scale) regardless
// of completion order, so output built from it is deterministic.
type SweepResult struct {
	Runs []RunResult `json:"runs"`
}

// Find returns the first run matching (workload, scheme) — the unique
// match for single-scale sweeps.
func (s *SweepResult) Find(w Workload, sch Scheme) (RunResult, bool) {
	for _, r := range s.Runs {
		if r.Workload == w && r.Scheme == sch {
			return r, true
		}
	}
	return RunResult{}, false
}

// job maps one cell of Sweep.Cells to the executor's job.
func (r *Runner) job(cell Sweep) (figures.Job, error) {
	sch, err := lookupScheme(cell.Schemes[0])
	if err != nil {
		return figures.Job{}, err
	}
	if len(cell.Attacks) > 0 {
		sc, err := lookupAttack(cell.Attacks[0])
		if err != nil {
			return figures.Job{}, err
		}
		return figures.AttackJob(sc, sch, r.options(0, 0)), nil
	}
	spec, err := lookupWorkload(cell.Workloads[0])
	return figures.Job{
		Spec: spec, Scheme: sch, Opt: r.options(cell.Scales[0], cell.MaxCycles),
		Series: sch.Name, Work: spec.Name,
	}, err
}

// Run executes one workload under one protection scheme and blocks until
// it completes or ctx is cancelled (cancellation is observed inside the
// simulation's cycle loop and surfaces as ctx.Err()). Single runs are
// never memoized: every call is a fresh simulation, as throughput
// benchmarking requires. Use Sweep for deduplicated, cached batches.
func (r *Runner) Run(ctx context.Context, spec RunSpec) (RunResult, error) {
	sw := Sweep{Workloads: []Workload{spec.Workload}, Schemes: []Scheme{spec.Scheme}, MaxCycles: spec.MaxCycles}
	if spec.Scale > 0 {
		sw.Scales = []float64{spec.Scale}
	}
	cells, err := sw.Cells(r.scale, r.maxCycles)
	if err != nil {
		return RunResult{}, err
	}
	job, err := r.job(cells[0])
	if err != nil {
		return RunResult{}, err
	}
	res, err := figures.RunOne(ctx, job.Spec, job.Scheme, job.Opt)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Workload: spec.Workload,
		Scheme:   Scheme(job.Scheme.Name),
		Scale:    job.Opt.Scale,
		Result: Result{
			Cycles:       uint64(res.Cycles),
			Instructions: res.Committed,
			Counters:     res.Counters,
		},
	}, nil
}

// Sweep executes the declared matrix over the runner's worker pool and
// returns the aggregated results in declaration order. Cells are
// memoized (duplicate cells — and cells shared with figure rows — run
// once; with WithCacheDir, once across process invocations), each
// completed cell is streamed to the WithProgress callback, and
// cancelling ctx aborts in-flight simulations promptly with ctx.Err().
// The matrix is validated up front (see Sweep.Cells): an unknown
// identifier fails the whole sweep before any simulation starts.
func (r *Runner) Sweep(ctx context.Context, sw Sweep) (*SweepResult, error) {
	cells, err := sw.Cells(r.scale, r.maxCycles)
	if err != nil {
		return nil, err
	}
	jobs := make([]figures.Job, len(cells))
	for i, c := range cells {
		if jobs[i], err = r.job(c); err != nil {
			return nil, err
		}
	}
	outs, err := r.execute(ctx, jobs)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Runs: make([]RunResult, len(outs))}
	for i, o := range outs {
		res.Runs[i] = outcomeResult(o)
	}
	return res, nil
}

// Figure regenerates one of the paper's figures as a printable table,
// through the same executor as Sweep: figure cells share the runner's
// memoization, disk cache and snapshot forking, honor the worker bound,
// and observe ctx cancellation. (Progress streaming applies to Sweep
// only; figure cells report completion in the rendered table.)
func (r *Runner) Figure(ctx context.Context, id FigureID) (*stats.Table, error) {
	fn, ok := figureFns[id]
	if !ok {
		return nil, fmt.Errorf("%w %q (fig3..fig9)", ErrUnknownFigure, id)
	}
	return fn(ctx, r.options(r.scale, r.maxCycles))
}

var figureFns = map[FigureID]func(context.Context, figures.Options) (*stats.Table, error){
	Fig3: figures.Fig3,
	Fig4: figures.Fig4,
	Fig5: figures.Fig5,
	Fig6: figures.Fig6,
	Fig7: figures.Fig7,
	Fig8: figures.Fig8,
	Fig9: figures.Fig9,
}

// execute runs jobs through the shared executor, wiring the runner's
// progress callback.
func (r *Runner) execute(ctx context.Context, jobs []figures.Job) ([]figures.Outcome, error) {
	ex := figures.Executor{Workers: r.workers}
	if r.progress != nil {
		done := 0
		total := len(jobs)
		ex.OnResult = func(o figures.Outcome) {
			done++ // serialized by the executor
			r.progress(Progress{Done: done, Total: total, Run: outcomeResult(o)})
		}
	}
	return ex.Execute(ctx, jobs)
}

// outcomeResult converts an executor outcome to a public RunResult. The
// counter map is copied: memoized cells share one map process-wide, and
// the public result must be safe for callers to mutate.
func outcomeResult(o figures.Outcome) RunResult {
	counters := make(map[string]uint64, len(o.Res.Counters))
	for k, v := range o.Res.Counters {
		counters[k] = v
	}
	return RunResult{
		Workload: Workload(o.Job.Spec.Name),
		Scheme:   Scheme(o.Job.Scheme.Name),
		Scale:    o.Job.Opt.Scale,
		Attack:   AttackName(o.Job.Attack),
		Result: Result{
			Cycles:       uint64(o.Res.Cycles),
			Instructions: o.Res.Committed,
			Counters:     counters,
		},
	}
}
