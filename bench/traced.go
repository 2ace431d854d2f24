package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/event"
	"repro/internal/figures"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/muontrap"
)

// The traced pass. The program carries no spans of its own yet, so the
// benchmark re-executes a workload's cells by hand, one at a time, with a
// span around each call into a layer:
//
//	figures.iteration
//	  figures.cell                      one per (kernel, scheme)
//	    workload.Build
//	    sim.BuildSystem
//	    sim.Warmup, checkpoint.Checkpoint, checkpoint.Put    first cell of a warmed kernel
//	    checkpoint.Restore
//	    sim.Run
//	      checkpoint.CheckpointAt, checkpoint.Put            per mid-run checkpoint
//	    muontrap.Marshal
//	  attack.Run                        one per (scenario, scheme)
//	  stats.Render
//
// and runs one remote iteration with spans around every client call and
// HTTP round trip. Every layer's self time is its spans' durations minus
// what their children cover. The pass also runs the whole ladder of rungs;
// end-to-end metrics never come from here.

// traceEvery is the share of a sweep's kernels (and attack scenarios) the
// traced pass re-executes: every n-th in name order, under every scheme.
// One worker and no cell-level pool make the traced cells slower than the
// cold iteration's, so the pass samples to stay inside the run budget.
var traceEvery = map[string]int{wlSpec: 3, wlParsec: 2, wlCkpt: 2, wlRemote: 1}

// runTraced measures every per-layer metric for one workload.
func runTraced(ctx context.Context, c runConfig) (passResult, error) {
	m := map[string]float64{}
	res := passResult{Metrics: m}
	dir, err := live.tempDir("traced")
	if err != nil {
		return res, err
	}
	budget := time.Duration(c.sz.RungMS) * time.Millisecond
	probe := startProbe()
	defer func() {
		// Per-layer times are reported raw; this is the factor a reader can
		// scale them by to compare two traced runs (see probe.go).
		m["bench.host_speed_x"] = probe.finish()
	}()

	microRungs(budget, m)
	memsysRungs(budget, m)
	cpuRungs(budget, m)
	if err := simRungs(ctx, c.sz, m); err != nil {
		return res, fmt.Errorf("sim rungs: %w", err)
	}
	if err := checkpointRungs(ctx, c.sz, dir, m); err != nil {
		return res, fmt.Errorf("checkpoint rungs: %w", err)
	}
	if err := cacheRungs(ctx, c.sz, dir, m); err != nil {
		return res, fmt.Errorf("cache rungs: %w", err)
	}
	if err := attackRungs(ctx, c.sz, m); err != nil {
		return res, fmt.Errorf("attack rungs: %w", err)
	}

	// The workload's own cells, by hand. remote-jobs traces the cells of
	// its bulk sweep: the simulation its transport legs wrap.
	tr := newTracer()
	remote := genRemote(c.seed, c.sz, c.daemon)
	var in sweepInput
	if c.workload == wlRemote {
		in = sweepInput{Workload: wlRemote, Sweep: remote.Bulk}
	} else if in, err = genSweep(c.workload, c.seed, c.sz); err != nil {
		return res, err
	}
	in.CacheDir = filepath.Join(dir, "cache")
	every := traceEvery[c.workload]
	if c.sz.TraceAll {
		every = 1
	}
	ts := &tracedSweep{tr: tr, in: in}
	if err := ts.run(ctx, every); err != nil {
		return res, fmt.Errorf("traced cells: %w", err)
	}
	res.Attempted += ts.cells
	res.Problems = append(res.Problems, ts.problems...)
	ts.metrics(m)

	// The remote leg: the workload's own iteration for remote-jobs, a
	// reduced one (six kernels, eight bulk cells) for the sweep workloads,
	// which never touch the job plane themselves.
	if c.workload != wlRemote {
		small := c.sz
		small.JobRounds, small.AttackJobs = 1, 1
		small.JobKernels, small.BulkKernels = tighter(c.sz.JobKernels, 6), tighter(c.sz.BulkKernels, 4)
		remote = genRemote(c.seed, small, c.daemon)
	}
	remote.Metrics = true
	spansBefore := len(tr.all())
	t0 := time.Now()
	rep, err := runRemote(ctx, remote, tr)
	if err != nil {
		return res, fmt.Errorf("traced remote leg: %w", err)
	}
	remoteWall := time.Since(t0).Seconds()
	res.Attempted += rep.Jobs
	res.Failed += rep.Failed
	res.Problems = append(res.Problems, rep.Problems...)
	spans := tr.all()
	remoteRungs(rep, spans[spansBefore:], m)
	benchRungs(len(spans), ts.wallS+remoteWall, m)

	out := filepath.Join(c.root, "bench", "out", fmt.Sprintf("trace-%s-seed%d.jsonl", c.workload, c.seed))
	if err := writeJSONL(out, spans); err != nil {
		return res, err
	}
	return res, nil
}

// tracedSweep re-executes a sample of a sweep's cells with spans.
type tracedSweep struct {
	tr *tracer
	in sweepInput

	root     int
	wallS    float64
	cells    int
	problems []string
	runs     []muontrap.RunResult
	cellMS   []float64
	ckpts    uint64
	store    *checkpoint.Store
	warm     map[string]*checkpoint.Snapshot
}

// sampleNames returns every n-th name in sorted order.
func sampleNames[T ~string](names []T, n int) []T {
	s := append([]T(nil), names...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var out []T
	for i, name := range s {
		if i%n == 0 {
			out = append(out, name)
		}
	}
	return out
}

func (ts *tracedSweep) run(ctx context.Context, every int) error {
	var err error
	if ts.store, err = checkpoint.NewStore(filepath.Join(ts.in.CacheDir, "snapshots")); err != nil {
		return err
	}
	ts.warm = map[string]*checkpoint.Snapshot{}
	scale := figures.DefaultOptions().Scale
	if len(ts.in.Sweep.Scales) > 0 {
		scale = ts.in.Sweep.Scales[0]
	}
	t0 := time.Now()
	var endRoot func()
	ts.root, endRoot = ts.tr.open("iteration", "figures.iteration", 0)
	for _, k := range sampleNames(ts.in.Sweep.Workloads, every) {
		for _, s := range ts.in.Sweep.Schemes {
			if err := ts.cell(ctx, mustSpec(string(k)), mustScheme(string(s)), scale); err != nil {
				endRoot()
				return fmt.Errorf("%s/%s: %w", k, s, err)
			}
		}
	}
	for _, a := range sampleNames(ts.in.Sweep.Attacks, every) {
		sc, ok := attack.ScenarioByName(string(a))
		if !ok {
			endRoot()
			return fmt.Errorf("unknown attack %q", a)
		}
		for _, s := range ts.in.Sweep.Schemes {
			_, end := ts.tr.open(string(a)+"/"+string(s), "attack.Run", ts.root)
			attack.Run(sc, mustScheme(string(s)))
			end()
			ts.cells++
		}
	}
	_, end := ts.tr.open("iteration", "stats.Render", ts.root)
	sink += uint64(len(normTable(&muontrap.SweepResult{Runs: ts.runs}).String()))
	end()
	endRoot()
	ts.wallS = time.Since(t0).Seconds()
	if ts.in.SchemeInvariant {
		ts.problems = append(ts.problems, schemeInvariance(&muontrap.SweepResult{Runs: ts.runs})...)
	}
	return nil
}

// cell runs one workload cell the way the figures executor would — build,
// optionally fork from the kernel's warm snapshot, run to halt with
// mid-run checkpoints persisted — one span per step.
func (ts *tracedSweep) cell(ctx context.Context, spec workload.Spec, sch defense.Scheme, scale float64) error {
	tr, trace := ts.tr, spec.Name+"/"+sch.Name
	t0 := time.Now()
	cellID, endCell := tr.open(trace, "figures.cell", ts.root)
	defer endCell()

	_, end := tr.open(trace, "workload.Build", cellID)
	sink += uint64(len(workload.Build(spec, scale).Text))
	end()
	_, end = tr.open(trace, "sim.BuildSystem", cellID)
	sys := figures.BuildSystem(spec, sch, scale)
	end()

	if ts.in.Warmup > 0 {
		snap := ts.warm[spec.Name]
		if snap == nil {
			// Warm state is scheme-independent: built once per kernel on an
			// unprotected machine, stored, and restored into every scheme.
			_, end = tr.open(trace, "sim.BuildSystem", cellID)
			w := figures.BuildSystem(spec, defense.Insecure(), scale)
			end()
			_, end = tr.open(trace, "sim.Warmup", cellID)
			w.Warmup(ts.in.Warmup)
			end()
			_, end = tr.open(trace, "checkpoint.Checkpoint", cellID)
			var err error
			snap, err = w.Checkpoint()
			end()
			if err != nil {
				return err
			}
			_, end = tr.open(trace, "checkpoint.Put", cellID)
			_, err = ts.store.Put(snap)
			end()
			if err != nil {
				return err
			}
			ts.warm[spec.Name] = snap
		}
		_, end = tr.open(trace, "checkpoint.Restore", cellID)
		err := sys.RestoreSnapshot(snap)
		end()
		if err != nil {
			return err
		}
	}

	runID, endRun := tr.open(trace, "sim.Run", cellID)
	var sinkFn sim.CheckpointSink
	if ts.in.CkptEvery > 0 {
		var drainStart int64
		prev := ""
		sys.OnCheckpointSample = func(int) { drainStart = tr.now() }
		sinkFn = func(snap *checkpoint.Snapshot) error {
			tr.record(trace, "checkpoint.CheckpointAt", runID, drainStart, tr.now())
			_, end := tr.open(trace, "checkpoint.Put", runID)
			defer end()
			h, err := ts.store.Put(snap)
			if err == nil {
				err = ts.store.Link("bench|"+trace, h)
			}
			if err != nil {
				return err
			}
			if prev != "" && prev != h {
				ts.store.Remove(prev) // only the latest checkpoint of a chain stays, as in the executor
			}
			prev = h
			return nil
		}
	}
	res, err := sys.RunUntilHaltCkpt(ctx, figures.DefaultOptions().MaxCycles, event.Cycle(ts.in.CkptEvery), sinkFn)
	endRun()
	if err != nil {
		return err
	}
	ts.ckpts += sys.CheckpointsTaken

	run := muontrap.RunResult{Workload: muontrap.Workload(spec.Name), Scheme: muontrap.Scheme(sch.Name), Scale: scale,
		Result: muontrap.Result{Cycles: uint64(res.Cycles), Instructions: res.Committed, Counters: res.Counters}}
	_, end = tr.open(trace, "muontrap.Marshal", cellID)
	b, err := json.Marshal(run)
	end()
	if err != nil {
		return err
	}
	sink += uint64(len(b))
	ts.runs = append(ts.runs, run)
	ts.cells++
	ts.cellMS = append(ts.cellMS, ms(time.Since(t0)))
	return nil
}

// sweepLayer attributes a sweep-part span to the metric that reports it.
func sweepLayer(name string) string {
	switch {
	case name == "sim.BuildSystem":
		return "sim.setup_self_s"
	case name == "sim.Warmup":
		return "sim.warmup_self_s"
	case name == "sim.Run":
		return "sim.run_self_s"
	case strings.HasPrefix(name, "workload."):
		return "workload.self_s"
	case strings.HasPrefix(name, "checkpoint."):
		return "checkpoint.self_s"
	case strings.HasPrefix(name, "attack."):
		return "attack.self_s"
	case strings.HasPrefix(name, "figures."), strings.HasPrefix(name, "muontrap."), strings.HasPrefix(name, "stats."):
		return "figures.glue_self_s" // cell and iteration bookkeeping, result encoding, table render
	}
	return "other"
}

// metrics reports the traced cells: per-layer self times, the exact counts
// summed over the cells' counters, and the cells' own durations.
func (ts *tracedSweep) metrics(m map[string]float64) {
	for _, name := range []string{"sim.setup_self_s", "sim.warmup_self_s", "sim.run_self_s", "workload.self_s",
		"checkpoint.self_s", "attack.self_s", "figures.glue_self_s"} {
		m[name] = 0 // a layer the workload never enters reports zero, not nothing
	}
	for layer, s := range layerSelf(ts.tr.all(), sweepLayer) {
		if layer != "other" {
			m[layer] = s
		}
	}
	m["figures.traced_wall_s"] = ts.wallS
	m["figures.cell_p50_ms"] = median(ts.cellMS)
	m["figures.cell_max_ms"] = percentile(ts.cellMS, 100)
	m["checkpoint.ckpts_taken"] = float64(ts.ckpts)

	c := map[string]uint64{}
	var insts, cycles uint64
	for _, r := range ts.runs {
		insts += r.Instructions
		cycles += r.Cycles
		for k, v := range r.Counters {
			c[mergeCores(k)] += v
		}
	}
	m["sim.insts"] = float64(insts)
	m["sim.cycles"] = float64(cycles)
	ki := max(float64(insts)/1e3, 1e-9) // thousands of committed instructions
	m["memsys.l0d_hit_frac"] = frac(c["core.l0d.hits"], c["core.l0d.hits"]+c["core.l0d.misses"])
	m["memsys.l1d_mpki"] = float64(c["core.l1d.misses"]) / ki
	m["memsys.ptwalks_pki"] = float64(c["core.ptwalks"]) / ki
	m["memsys.se_upgrades"] = float64(c["core.commit.se_upgrades"])
	m["memsys.coh_nacks"] = float64(c["coh.nacks"])
	m["memsys.filter_broadcasts"] = float64(c["coh.filter_broadcasts"])
	m["memsys.domain_flushes"] = float64(c["core.flush.domain"])
	m["cpu.mispredicts_pki"] = float64(c["core.mispredicts"]) / ki
	m["cpu.squashed_frac"] = frac(c["core.squashed"], c["core.fetched"]) // wasted work: squashed / fetched
	m["cpu.defense_stalls_pki"] = float64(c["core.stt_stalls"]+c["core.safebet_stalls"]+c["core.exposures"]) / ki

	norm := normTimes(&muontrap.SweepResult{Runs: ts.runs})
	for _, s := range comparedSchemes[1:] {
		m["figures.norm_time."+string(s)] = norm[string(s)] // 0 when the workload does not run the scheme
	}
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
