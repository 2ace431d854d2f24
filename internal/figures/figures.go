package figures

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// schemeLabel is the metric label value for a run's defense scheme. Scheme
// names are non-empty everywhere schemes are built, but a label value must
// never be empty, so the zero value gets a stable placeholder.
func schemeLabel(name string) string {
	if name == "" {
		return "unnamed"
	}
	return name
}

// Options controls experiment size.
type Options struct {
	// Scale multiplies every workload's trip count (1.0 ≈ a few hundred
	// thousand instructions per run; benchmarks and tests use less).
	Scale float64
	// MaxCycles bounds each run.
	MaxCycles int
	// Parallelism caps concurrent runs (0 = GOMAXPROCS).
	Parallelism int
	// WarmupInsts, when positive, architecturally fast-forwards this many
	// instructions per workload once, checkpoints the warmed machine, and
	// forks every per-scheme run of that workload's figure row from the
	// restored snapshot instead of re-simulating the warm-up per scheme.
	// Zero (the default) preserves the historical from-reset runs.
	WarmupInsts int
	// CacheDir, when non-empty, backs the run memoization with a disk
	// cache (results plus warm snapshots) keyed by the full run
	// configuration and the simulator build fingerprint, so figure sweeps
	// resume across process invocations.
	CacheDir string
	// CheckpointEvery, when positive, drains every run to a quiescent
	// boundary each time it crosses that many simulated cycles and
	// snapshots the machine (persisted to the CacheDir snapshot store when
	// one is configured), so very long runs can crash-resume mid-detailed-
	// simulation. Draining costs deterministic simulated cycles, so the
	// cadence is part of a run's identity: results at different cadences
	// are cached separately and never compared.
	CheckpointEvery int
	// Resume, with CheckpointEvery and CacheDir set, restarts each run
	// from its latest persisted mid-run checkpoint instead of from cold
	// (or warmup-only) state. A resumed run is bit-identical to an
	// uninterrupted run at the same cadence.
	Resume bool
	// SnapshotStore, when non-nil, overrides the default CacheDir-local
	// mid-run checkpoint store. Fleet workers install a checkpoint.Mirror
	// here (local disk + the coordinator's HTTP store) so an interrupted
	// cell's latest checkpoint is fetchable from any other machine. The
	// keying is unchanged — only where the bytes live.
	SnapshotStore checkpoint.ChainStore

	// ckptSpy, when non-nil (tests only), observes the n-th mid-run
	// checkpoint after it is persisted; returning an error aborts the run,
	// simulating a crash immediately after that checkpoint landed.
	ckptSpy func(n int) error
}

// ckptEvery returns the effective mid-run checkpoint cadence: nonsensical
// negative values disable checkpointing (cadence 0) everywhere — the run
// loop, the snapshot store gate and every cache key — rather than
// converting to a huge unsigned cycle count that silently never fires.
func (o Options) ckptEvery() int {
	if o.CheckpointEvery > 0 {
		return o.CheckpointEvery
	}
	return 0
}

// DefaultOptions is sized for the bench harness: big enough for stable
// shapes, small enough to finish the full matrix in minutes.
func DefaultOptions() Options {
	return Options{Scale: 0.15, MaxCycles: 40_000_000}
}

// runKey identifies one deterministic simulation: every figure input that
// can change a run's outcome is part of the key. Geometry fields are only
// non-zero for the Fig 5/6 filter-cache sweeps; warmup/snapHash only when
// snapshot forking is enabled. newRunKey is its one constructor; the
// in-process memo map is keyed by the struct itself and every on-disk key
// is its diskKey rendering.
type runKey struct {
	workload  string
	scheme    string
	scale     float64
	maxCycles int
	l0dSize   uint64
	l0dAssoc  int
	warmup    int
	snapHash  string
	// every is the mid-run checkpoint cadence: drains perturb timing
	// deterministically, so runs at different cadences are distinct
	// experiments.
	every int
}

// newRunKey builds a cell's identity: what it runs (Spec, or an attack
// cell's subject; Scheme; filter geometry), its sizing, and the warm-up
// depth, warm snapshot hash and checkpoint cadence. The executor builds it
// once per cell and hands it to the run, so the memo map, the disk cache
// and the mid-run checkpoint chain all see the same key. With warm-up set
// it materialises the workload's warm snapshot to learn its hash.
func newRunKey(j Job) (key runKey, err error) {
	snapHash, err := snapHashFor(j)
	if err != nil {
		return key, err
	}
	name := j.Spec.Name
	if j.subject != "" {
		name = j.subject
	}
	return runKey{workload: name, scheme: j.Scheme.Name,
		scale: j.Opt.Scale, maxCycles: j.Opt.MaxCycles,
		l0dSize: j.l0dSize, l0dAssoc: j.l0dAssoc,
		warmup: j.Opt.WarmupInsts, snapHash: snapHash, every: j.Opt.ckptEvery()}, nil
}

// runEntry is a singleflight-style cache slot: concurrent jobs for the
// same key share one simulation. ready is closed when res/err are final.
type runEntry struct {
	ready chan struct{}
	res   sim.RunResult
	err   error
}

var (
	runCacheMu sync.Mutex
	runCache   = map[runKey]*runEntry{}
)

// cachedRun memoizes deterministic experiment runs: an in-process
// singleflight layer (Fig 5 and Fig 6 re-run the insecure Parsec baseline
// Fig 4 already ran, and Fig 7 re-runs Fig 3's MuonTrap SPEC column, so a
// figure suite pays for each distinct key exactly once per process) over
// an optional disk layer (opt.CacheDir), which lets cmd/figures resume a
// sweep across invocations: a previously computed row is re-emitted
// without re-simulating. Every individual run is unchanged — only
// duplicates are elided. Results are shared; callers must not mutate them.
//
// Cancellation never poisons the cache: a run that ends in a context
// error is dropped from the map so a later attempt re-simulates, and
// goroutines waiting on someone else's in-flight run stop waiting as soon
// as their own ctx is cancelled.
func cachedRun(ctx context.Context, opt Options, key runKey, run func(context.Context) (sim.RunResult, error)) (sim.RunResult, error) {
	prof := telemetry.ActiveSimProfiler() // nil when profiling is off; all methods no-op
	for {
		runCacheMu.Lock()
		e := runCache[key]
		if e == nil {
			e = &runEntry{ready: make(chan struct{})}
			runCache[key] = e
			runCacheMu.Unlock()
			prof.RecordCacheEvent(telemetry.CacheMemory, false)

			var dkey string
			if opt.CacheDir != "" {
				dkey = diskKey(key)
				if res, ok := diskGet(opt.CacheDir, dkey); ok {
					prof.RecordCacheEvent(telemetry.CacheDisk, true)
					e.res = res
					close(e.ready)
					return e.res, nil
				}
				prof.RecordCacheEvent(telemetry.CacheDisk, false)
			}
			simStart := time.Now()
			e.res, e.err = run(ctx)
			if e.err == nil {
				prof.RecordRun(schemeLabel(key.scheme), uint64(e.res.Cycles), e.res.Committed, time.Since(simStart))
			}
			if e.err == nil && opt.CacheDir != "" {
				diskPut(opt.CacheDir, dkey, e.res)
			}
			if e.err != nil && ctxErr(e.err) {
				// Aborted, not wrong: drop the entry (before waking
				// waiters) so future attempts re-simulate.
				runCacheMu.Lock()
				if runCache[key] == e {
					delete(runCache, key)
				}
				runCacheMu.Unlock()
			}
			close(e.ready)
			return e.res, e.err
		}
		runCacheMu.Unlock()
		select {
		case <-e.ready:
			if e.err != nil && ctxErr(e.err) {
				continue // owner's run was cancelled; retry under our ctx
			}
			return e.res, e.err
		case <-ctx.Done():
			return sim.RunResult{}, ctx.Err()
		}
	}
}

// ResetRunCache drops all memoized figure runs and warm snapshots (test
// hook). The disk layer, if any, is untouched.
func ResetRunCache() {
	runCacheMu.Lock()
	runCache = map[runKey]*runEntry{}
	runCacheMu.Unlock()
	resetSnapCache()
}

// BuildSystem assembles the standard figure machine for one workload
// under one scheme (figureConfig) on a freshly built program at scale,
// processes loaded and scheduled, nothing yet simulated. It is exported
// for the differential checkpoint suites, which must run the exact
// machine the figures do.
func BuildSystem(spec workload.Spec, sch defense.Scheme, scale float64) *sim.System {
	return assemble(figureConfig(spec, sch), workload.Build(spec, scale))
}

// figureConfig is the standard figure machine for one workload under one
// scheme: one core for SPEC or four for Parsec (full-system, with the
// periodic OS timer that drives protection-domain switches).
func figureConfig(spec workload.Spec, sch defense.Scheme) sim.Config {
	cores := 1
	if spec.Suite == "parsec" {
		cores = 4
	}
	cfg := sim.DefaultConfig(cores)
	cfg.CPU.Defense = sch.CPU
	cfg.Mem.Mode = sch.Mode
	if spec.Suite == "parsec" {
		// Parsec runs full-system: periodic OS timer ticks switch
		// protection domains (paper §5). The interval is scaled down with
		// our run lengths so each run still sees a realistic number of
		// domain flushes per committed instruction.
		cfg.TimerInterval = 150_000
	}
	return cfg
}

// config is the machine the cell runs on: the standard figure machine,
// or for a Fig 5/6 cell a Parsec workload on four cores under its scheme
// (sweepScheme) with a custom data filter cache geometry. A geometry cell
// forks from the same warm snapshot as the standard-geometry runs: filter
// caches hold no warm state, so L0 geometry does not enter it.
func (j Job) config() sim.Config {
	if j.l0dSize == 0 {
		return figureConfig(j.Spec, j.Scheme)
	}
	cfg := sim.DefaultConfig(4)
	cfg.Mem.Mode = j.Scheme.Mode
	cfg.Mem.L0D.SizeBytes = j.l0dSize
	cfg.Mem.L0D.Assoc = j.l0dAssoc
	cfg.TimerInterval = 500_000
	return cfg
}

// assemble builds the machine cfg describes and loads prog into one
// process, scheduled with one thread on each core.
func assemble(cfg sim.Config, prog *isa.Program) *sim.System {
	sys := sim.New(cfg)
	p := sys.NewProcess(prog)
	sys.RunOn(0, p, 0)
	for th := 1; th < cfg.Mem.Cores; th++ {
		sys.AddThread(p, th, prog.Entry)
		sys.RunOn(th, p, th)
	}
	return sys
}

// RunOne executes one workload under one scheme and returns the result.
// It is NOT memoized — throughput benchmarks and single-run API users get
// a fresh simulation; the figure/sweep matrices deduplicate through
// cachedRun. With opt.WarmupInsts set, the run forks from the workload's
// shared warm snapshot (which is memoized) instead of simulating from
// reset. Cancelling ctx mid-simulation returns ctx.Err().
func RunOne(ctx context.Context, spec workload.Spec, sch defense.Scheme, opt Options) (sim.RunResult, error) {
	j := Job{Spec: spec, Scheme: sch, Opt: opt}
	key, err := newRunKey(j)
	if err != nil {
		return sim.RunResult{}, err
	}
	return j.run(ctx, key)
}

// runMatrix executes jobs through the shared executor and returns cycles
// per (series, workload). The worker bound comes from the jobs' own
// options (one Options value per matrix).
func runMatrix(ctx context.Context, jobs []Job) (map[string]map[string]event.Cycle, error) {
	var ex Executor
	if len(jobs) > 0 {
		ex.Workers = jobs[0].Opt.Parallelism
	}
	outs, err := ex.Execute(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]event.Cycle)
	for _, o := range outs {
		if out[o.Job.Series] == nil {
			out[o.Job.Series] = make(map[string]event.Cycle)
		}
		out[o.Job.Series][o.Job.Work] = o.Res.Cycles
	}
	return out, nil
}

// normalisedTable builds a figure table of exec time normalised to the
// "baseline" series.
func normalisedTable(title string, workloads []string, order []string,
	cycles map[string]map[string]event.Cycle) *stats.Table {
	t := &stats.Table{Title: title, Workloads: workloads}
	base := cycles["baseline"]
	for _, name := range order {
		s := t.AddSeries(name)
		for _, w := range workloads {
			if b, ok := base[w]; ok && b > 0 {
				if c, ok2 := cycles[name][w]; ok2 {
					s.Values[w] = float64(c) / float64(b)
				}
			}
		}
	}
	return t
}

// schemeFigure builds Figures 3/4 and 8/9: the suite's workloads under
// each scheme, one series per scheme, normalised to the insecure baseline.
func schemeFigure(ctx context.Context, title string, specs []workload.Spec, schemes []defense.Scheme, opt Options) (*stats.Table, error) {
	var jobs []Job
	for _, sp := range specs {
		jobs = append(jobs, Job{Spec: sp, Scheme: defense.Insecure(), Opt: opt, Series: "baseline", Work: sp.Name})
		for _, sch := range schemes {
			jobs = append(jobs, Job{Spec: sp, Scheme: sch, Opt: opt, Series: sch.Name, Work: sp.Name})
		}
	}
	cycles, err := runMatrix(ctx, jobs)
	if err != nil {
		return nil, err
	}
	var order []string
	for _, sch := range schemes {
		order = append(order, sch.Name)
	}
	return normalisedTable(title, workload.Names(specs), order, cycles), nil
}

// Fig3 is the SPEC CPU2006 comparison (paper Figure 3).
func Fig3(ctx context.Context, opt Options) (*stats.Table, error) {
	return schemeFigure(ctx, "Figure 3: SPEC CPU2006 normalised execution time",
		workload.SPEC2006(), defense.Comparison(), opt)
}

// Fig4 is the Parsec comparison on 4 cores (paper Figure 4).
func Fig4(ctx context.Context, opt Options) (*stats.Table, error) {
	return schemeFigure(ctx, "Figure 4: Parsec normalised execution time (4 threads)",
		workload.Parsec(), defense.Comparison(), opt)
}

// sweepScheme is full MuonTrap under the name the Fig 5/6 cells are keyed
// by, so a custom-geometry cell never shares a key with a standard one.
func sweepScheme() defense.Scheme {
	sch := defense.MuonTrap()
	sch.Name = "muontrap-sweep"
	return sch
}

// geometryFigure builds Figures 5/6: the insecure baseline plus one
// custom-geometry MuonTrap series per (size, assoc) point.
func geometryFigure(ctx context.Context, title string, opt Options,
	series func(i int) string, geom func(i int) (uint64, int), n int) (*stats.Table, error) {
	specs := workload.Parsec()
	var jobs []Job
	for _, sp := range specs {
		jobs = append(jobs, Job{Spec: sp, Scheme: defense.Insecure(), Opt: opt, Series: "baseline", Work: sp.Name})
		for i := 0; i < n; i++ {
			size, assoc := geom(i)
			jobs = append(jobs, Job{Spec: sp, Scheme: sweepScheme(), Opt: opt, Series: series(i), Work: sp.Name,
				l0dSize: size, l0dAssoc: assoc})
		}
	}
	cycles, err := runMatrix(ctx, jobs)
	if err != nil {
		return nil, err
	}
	var order []string
	for i := 0; i < n; i++ {
		order = append(order, series(i))
	}
	return normalisedTable(title, workload.Names(specs), order, cycles), nil
}

// Fig5 sweeps the (fully associative) data filter cache size on Parsec
// (paper Figure 5). Series are sizes in bytes; values normalised to the
// insecure baseline.
func Fig5(ctx context.Context, opt Options) (*stats.Table, error) {
	sizes := []uint64{64, 128, 256, 512, 1024, 2048, 4096}
	return geometryFigure(ctx,
		"Figure 5: filter cache size sweep (fully associative), Parsec", opt,
		func(i int) string { return fmt.Sprintf("%dB", sizes[i]) },
		func(i int) (uint64, int) { return sizes[i], int(sizes[i] / 64) }, // fully associative
		len(sizes))
}

// Fig6 sweeps the associativity of the 2KiB filter cache on Parsec (paper
// Figure 6).
func Fig6(ctx context.Context, opt Options) (*stats.Table, error) {
	assocs := []int{1, 2, 4, 8, 16, 32}
	return geometryFigure(ctx,
		"Figure 6: filter cache associativity sweep (2KiB), Parsec", opt,
		func(i int) string { return fmt.Sprintf("%d-way", assocs[i]) },
		func(i int) (uint64, int) { return 2048, assocs[i] },
		len(assocs))
}

// Fig7 reports the fraction of committed stores that required an
// exclusive upgrade with filter-cache broadcast under MuonTrap (paper
// Figure 7).
func Fig7(ctx context.Context, opt Options) (*stats.Table, error) {
	specs := workload.SPEC2006()
	jobs := make([]Job, 0, len(specs))
	for _, sp := range specs {
		jobs = append(jobs, Job{Spec: sp, Scheme: defense.MuonTrap(), Opt: opt,
			Series: "invalidate-rate", Work: sp.Name})
	}
	ex := Executor{Workers: opt.Parallelism}
	outs, err := ex.Execute(ctx, jobs)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:     "Figure 7: store filter-cache-invalidate (upgrade broadcast) rate under MuonTrap",
		Workloads: workload.Names(specs),
	}
	series := t.AddSeries("invalidate-rate")
	for _, o := range outs {
		drains := o.Res.Counters[memsys.PCStoreDrains.Key(0)]
		ups := o.Res.Counters[memsys.PCStoreUpgrades.Key(0)]
		if drains > 0 {
			series.Values[o.Job.Work] = float64(ups) / float64(drains)
		}
	}
	return t, nil
}

// Fig8 is the Parsec cumulative-mechanism breakdown (paper Figure 8).
func Fig8(ctx context.Context, opt Options) (*stats.Table, error) {
	return schemeFigure(ctx, "Figure 8: cumulative protection mechanisms, Parsec",
		workload.Parsec(), defense.CumulativeStages(), opt)
}

// Fig9 is the SPEC cumulative-mechanism breakdown including the parallel
// L1 lookup option (paper Figure 9).
func Fig9(ctx context.Context, opt Options) (*stats.Table, error) {
	schemes := append(defense.CumulativeStages(), defense.MuonTrapParallelL1())
	return schemeFigure(ctx, "Figure 9: cumulative protection mechanisms, SPEC CPU2006",
		workload.SPEC2006(), schemes, opt)
}

// TableOne renders the experimental setup (paper Table 1) from the live
// default configuration, so drift between code and documentation is
// impossible.
func TableOne() string {
	cfg := sim.DefaultConfig(4)
	c := cfg.CPU
	m := cfg.Mem
	return fmt.Sprintf(`Table 1: core and memory experimental setup
Core           %d-wide out-of-order
Pipeline       %d-entry ROB, %d-entry IQ, %d-entry LQ, %d-entry SQ,
               %d int ALUs, %d FP ALUs, %d mult/div ALUs
Branch pred.   tournament: 2048-entry local, 8192-entry global,
               2048-entry chooser, 4096-entry BTB, 16-entry RAS
L1 ICache      %dKiB, %d-way, %d-cycle hit, %d MSHRs
L1 DCache      %dKiB, %d-way, %d-cycle hit, %d MSHRs
TLBs           %d-entry, fully associative, split I/D
Data filter    %dB, %d-way, %d-cycle hit, %d MSHRs
Inst filter    %dB, %d-way, %d-cycle hit, %d MSHRs
L2 Cache       %dMiB, %d-way, %d-cycle hit, %d MSHRs, stride prefetcher
Memory         DDR3-1600-class timing (row hit %d / miss %d core cycles)
Core count     %d cores
`,
		c.FetchWidth,
		c.ROBSize, c.IQSize, c.LQSize, c.SQSize,
		c.IntALUs, c.FPALUs, c.MulDivs,
		m.L1I.SizeBytes>>10, m.L1I.Assoc, m.Lat.L1IHit, m.L1IMSHRs,
		m.L1D.SizeBytes>>10, m.L1D.Assoc, m.Lat.L1DHit, m.L1DMSHRs,
		m.TLBEntries,
		m.L0D.SizeBytes, m.L0D.Assoc, m.Lat.L0Hit, m.L0D.MSHRs,
		m.L0I.SizeBytes, m.L0I.Assoc, m.Lat.L0Hit, m.L0I.MSHRs,
		m.L2.SizeBytes>>20, m.L2.Assoc, m.Lat.L2Hit, m.L2MSHRs,
		m.DRAM.RowHitLatency, m.DRAM.RowMissLatency,
		cfg.Mem.Cores,
	)
}
