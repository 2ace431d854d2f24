package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/attack"
	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/figures"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/muontrap"
)

// The ladder's upper rungs: one whole simulation per scheme, the
// checkpoint codec and store, the figures executor's caches, the attack
// harness, the public Runner's per-cell overheads, and — through real
// muontrapd processes — the service and fleet layers.

func mustSpec(name string) workload.Spec {
	s, ok := workload.ByName(name)
	if !ok {
		panic("bench: unknown kernel " + name) // the names are literals in this package
	}
	return s
}

func mustScheme(name string) defense.Scheme {
	s, err := defense.ByName(name)
	if err != nil {
		panic("bench: unknown scheme " + name)
	}
	return s
}

// simPairInput asks a child to simulate the two coherence-heavy Parsec
// kernels under muontrap. The parent runs it twice, once as-is and once
// with GOMAXPROCS=1: in-run core scheduling is whatever the repository
// selects for the host it sees, and is never set through a knob.
type simPairInput struct {
	Scale float64 `json:"scale"`
}

type simPairReport struct {
	WallS float64 `json:"wall_s"`
	Insts uint64  `json:"insts"`
}

func childSimPair(in simPairInput) (simPairReport, error) {
	var rep simPairReport
	t0 := time.Now()
	for _, k := range []string{"canneal", "streamcluster"} {
		res, err := figures.RunOne(context.Background(), mustSpec(k), defense.MuonTrap(),
			figures.Options{Scale: in.Scale, MaxCycles: figures.DefaultOptions().MaxCycles})
		if err != nil {
			return rep, err
		}
		rep.Insts += res.Committed
	}
	rep.WallS = time.Since(t0).Seconds()
	return rep, nil
}

// simRungs measures whole simulations.
func simRungs(ctx context.Context, sz sizes, m map[string]float64) error {
	opt := figures.Options{Scale: sz.SimScale, MaxCycles: figures.DefaultOptions().MaxCycles}
	hmmer := mustSpec("hmmer")
	for _, sch := range comparedSchemes {
		var rates []float64
		for i := 0; i < sz.Reps; i++ {
			t0 := time.Now()
			res, err := figures.RunOne(ctx, hmmer, mustScheme(string(sch)), opt)
			if err != nil {
				return err
			}
			rates = append(rates, float64(res.Committed)/1e6/time.Since(t0).Seconds())
		}
		m["sim.minsts_per_s."+string(sch)] = median(rates)
	}

	// Program generation and machine assembly for a large-footprint
	// kernel: the fixed cost every cell pays before its first cycle.
	var progs, builds []float64
	for i := 0; i < sz.Reps; i++ {
		t0 := time.Now()
		sink += uint64(len(workload.Build(mustSpec(sz.BuildHeavy), sz.SimScale/2).Text))
		progs = append(progs, ms(time.Since(t0)))
		t0 = time.Now()
		figures.BuildSystem(mustSpec(sz.BuildHeavy), defense.MuonTrap(), sz.SimScale/2)
		builds = append(builds, ms(time.Since(t0)))
	}
	m["workload.build_ms"] = median(progs)
	m["sim.build_system_ms"] = median(builds)

	// One hmmer run under muontrap, taken apart: host time per simulated
	// cycle of the run loop alone, and allocations of build plus run (the
	// least of three, as in allocsPerOp).
	var perCycle []float64
	mallocs := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys := figures.BuildSystem(hmmer, defense.MuonTrap(), sz.SimScale)
		t0 := time.Now()
		res, err := sys.RunUntilHaltCtx(ctx, opt.MaxCycles)
		if err != nil {
			return err
		}
		perCycle = append(perCycle, float64(time.Since(t0).Nanoseconds())/float64(res.Cycles))
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
	}
	m["sim.host_ns_per_cycle"] = median(perCycle)
	m["sim.allocs_per_run"] = float64(mallocs)

	// Architectural fast-forward, and draining a running 4-core machine.
	canneal := mustSpec("canneal")
	warm := figures.BuildSystem(canneal, defense.Insecure(), sz.PairScale)
	t0 := time.Now()
	n := warm.Warmup(20_000)
	m["sim.warmup_minsts_per_s"] = float64(n) / 1e6 / time.Since(t0).Seconds()
	run := figures.BuildSystem(canneal, defense.MuonTrap(), sz.PairScale)
	var drains []float64
	for i := 0; i < 5; i++ {
		run.Step(1_000)
		t0 = time.Now()
		if err := run.Drain(ctx); err != nil {
			return err
		}
		drains = append(drains, float64(time.Since(t0).Nanoseconds())/1e3)
		run.ResumeFetch()
	}
	m["sim.drain_us"] = median(drains)

	// The same two multi-core cells in a child that sees every CPU and in
	// one restricted to a single CPU, in alternation: the barrier scheduler's
	// speed depends on both CPUs being granted at once, so one pair alone
	// says little on a shared host.
	var defRate, seqRate, ratio []float64
	in := simPairInput{Scale: sz.PairScale}
	for i := 0; i < sz.Reps; i++ {
		var def, seq simPairReport
		if _, _, err := runChild(ctx, "simpair", in, &def, nil, childTimeout); err != nil {
			return err
		}
		if _, _, err := runChild(ctx, "simpair", in, &seq, []string{"GOMAXPROCS=1"}, childTimeout); err != nil {
			return err
		}
		defRate = append(defRate, float64(def.Insts)/1e6/def.WallS)
		seqRate = append(seqRate, float64(seq.Insts)/1e6/seq.WallS)
		ratio = append(ratio, def.WallS/seq.WallS)
	}
	m["sim.parsec_minsts_per_s"] = median(defRate)
	m["sim.parsec_seq_minsts_per_s"] = median(seqRate)
	m["sim.par_over_seq_x"] = median(ratio) // above 1: the default scheduling is slower
	return nil
}

// checkpointRungs takes a running 4-core machine through the whole
// snapshot path: drain and capture, encode, hash, store, load, decode,
// restore.
func checkpointRungs(ctx context.Context, sz sizes, dir string, m map[string]float64) error {
	canneal := mustSpec("canneal")
	sys := figures.BuildSystem(canneal, defense.MuonTrap(), sz.PairScale)
	var snap *checkpoint.Snapshot
	var at []float64
	for i := 0; i < 5; i++ {
		sys.Step(1_000)
		t0 := time.Now()
		s, err := sys.CheckpointAt(ctx, 0)
		if err != nil {
			return err
		}
		at = append(at, ms(time.Since(t0)))
		snap = s
	}
	m["checkpoint.checkpoint_at_ms"] = median(at)

	var enc []byte
	mbps := func(fn func()) float64 {
		var xs []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			fn()
			xs = append(xs, float64(len(enc))/1e6/time.Since(t0).Seconds())
		}
		return median(xs)
	}
	enc = snap.Encode()
	m["checkpoint.encode_mb_per_s"] = mbps(func() { enc = snap.Encode() })
	m["checkpoint.snapshot_kb"] = float64(len(enc)) / 1024
	m["checkpoint.hash_mb_per_s"] = mbps(func() { sink += uint64(len(snap.Hash())) })
	var decodeErr error
	m["checkpoint.decode_mb_per_s"] = mbps(func() {
		if _, err := checkpoint.Decode(enc); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return decodeErr
	}

	st, err := checkpoint.NewStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		return err
	}
	var puts, loads, restores []float64
	var hash string
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if hash, err = st.Put(snap); err != nil {
			return err
		}
		puts = append(puts, ms(time.Since(t0)))
		t0 = time.Now()
		loaded, err := st.Load(hash)
		if err != nil {
			return err
		}
		loads = append(loads, ms(time.Since(t0)))
		fresh := figures.BuildSystem(canneal, defense.MuonTrap(), sz.PairScale)
		t0 = time.Now()
		if err := fresh.RestoreSnapshot(loaded); err != nil {
			return err
		}
		restores = append(restores, ms(time.Since(t0)))
		st.Remove(hash) // the next Put must write, not find its content already there
	}
	m["checkpoint.store_put_ms"] = median(puts)
	m["checkpoint.store_load_ms"] = median(loads)
	m["checkpoint.restore_ms"] = median(restores)
	return nil
}

// storePutMS times one 4-core snapshot put through a coordinator's
// /fleet/v1/store, the path a fleet worker mirrors its checkpoints over.
func storePutMS(coordinator string) float64 {
	sys := figures.BuildSystem(mustSpec("canneal"), defense.MuonTrap(), 0.02)
	sys.Step(1_000)
	snap, err := sys.CheckpointAt(context.Background(), 0)
	if err != nil {
		return 0
	}
	st := checkpoint.NewHTTPStore(coordinator+"/fleet/v1/store", nil)
	t0 := time.Now()
	if _, err := st.Put(snap); err != nil {
		return 0
	}
	return ms(time.Since(t0))
}

// cacheRungs measures the figures executor's three caches and the public
// Runner's per-cell overhead on top of them, on one small sweep.
func cacheRungs(ctx context.Context, sz sizes, dir string, m map[string]float64) error {
	kernels := []string{"hmmer", "bzip2", "gobmk", "namd"}
	var jobs []figures.Job
	sw := muontrap.Sweep{Scales: []float64{sz.SimScale / 10}}
	for _, k := range kernels {
		sw.Workloads = append(sw.Workloads, muontrap.Workload(k))
		for _, s := range comparedSchemes {
			opt := figures.Options{Scale: sz.SimScale / 10, MaxCycles: figures.DefaultOptions().MaxCycles,
				CacheDir: filepath.Join(dir, "figcache")}
			jobs = append(jobs, figures.Job{Spec: mustSpec(k), Scheme: mustScheme(string(s)), Opt: opt, Series: string(s), Work: k})
		}
	}
	sw.Schemes = comparedSchemes
	cells := float64(len(jobs))
	ex := figures.Executor{Workers: 1}
	perCell := func() (float64, error) {
		t0 := time.Now()
		_, err := ex.Execute(ctx, jobs)
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / cells, err
	}
	if _, err := perCell(); err != nil { // cold: simulate and persist
		return err
	}
	var memo, disk []float64
	for i := 0; i < 5; i++ {
		us, err := perCell()
		if err != nil {
			return err
		}
		memo = append(memo, us)
	}
	for i := 0; i < 3; i++ {
		figures.ResetRunCache() // drop the memo so the disk layer answers
		us, err := perCell()
		if err != nil {
			return err
		}
		disk = append(disk, us)
	}
	m["figures.us_per_memo_hit"] = median(memo)
	m["figures.us_per_disk_hit"] = median(disk)
	m["figures.disk_kb_per_cell"] = dirKB(filepath.Join(dir, "figcache")) / cells

	// Warm-snapshot forking: the first run of a kernel builds and stores
	// its warm snapshot, later runs under other schemes only restore it.
	ferret := mustSpec("ferret")
	wopt := figures.Options{Scale: sz.PairScale, MaxCycles: figures.DefaultOptions().MaxCycles, WarmupInsts: 5_000}
	t0 := time.Now()
	if _, err := figures.RunOne(ctx, ferret, defense.Insecure(), wopt); err != nil {
		return err
	}
	m["figures.warmsnap_first_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if _, err := figures.RunOne(ctx, ferret, defense.Insecure(), wopt); err != nil {
		return err
	}
	m["figures.fork_ms"] = ms(time.Since(t0)) // the same run again: restore plus simulate, no snapshot build

	// The public Runner over memoized cells: Sweep's own bookkeeping and
	// result copying, then the wire encoding.
	runner := muontrap.NewRunner(muontrap.WithWorkers(1))
	res, err := runner.Sweep(ctx, sw)
	if err != nil {
		return err
	}
	var sweeps, encs []float64
	var out []byte
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if res, err = runner.Sweep(ctx, sw); err != nil {
			return err
		}
		sweeps = append(sweeps, float64(time.Since(t0).Nanoseconds())/1e3/cells)
		t0 = time.Now()
		if out, err = json.Marshal(res); err != nil {
			return err
		}
		encs = append(encs, float64(time.Since(t0).Nanoseconds())/1e3/cells)
	}
	m["muontrap.sweep_us_per_cell"] = median(sweeps)
	m["muontrap.json_us_per_cell"] = median(encs)
	sink += uint64(len(out))

	// Rendering the normalised-time table of a figure.
	var renders []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sink += uint64(len(normTable(res).String()))
		renders = append(renders, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["stats.render_us"] = median(renders)
	return nil
}

// normTable builds the figure-style table of cycles normalised to the
// insecure run of each kernel.
func normTable(res *muontrap.SweepResult) *stats.Table {
	t := &stats.Table{Title: "normalised execution time"}
	base := map[muontrap.Workload]float64{}
	series := map[muontrap.Scheme]int{}
	for _, r := range res.Runs {
		if r.Attack != "" {
			continue
		}
		if r.Scheme == muontrap.SchemeInsecure {
			base[r.Workload] = float64(r.Cycles)
			t.Workloads = append(t.Workloads, string(r.Workload))
		}
		if _, ok := series[r.Scheme]; !ok {
			series[r.Scheme] = len(t.Series)
			t.AddSeries(string(r.Scheme))
		}
	}
	for _, r := range res.Runs {
		if r.Attack == "" && base[r.Workload] != 0 {
			t.Series[series[r.Scheme]].Values[string(r.Workload)] = float64(r.Cycles) / base[r.Workload]
		}
	}
	return t
}

// attackRungs measures the attack harness: one cell, the whole matrix
// through the Runner's pool, and the scenario codec.
func attackRungs(ctx context.Context, sz sizes, m map[string]float64) error {
	sc, ok := attack.ScenarioByName("spectre")
	if !ok {
		return fmt.Errorf("attack scenario spectre missing from the corpus")
	}
	var cells []float64
	for i := 0; i < sz.Reps; i++ {
		t0 := time.Now()
		r := attack.Run(sc, defense.MuonTrap())
		cells = append(cells, ms(time.Since(t0)))
		if r.Succeeded {
			return fmt.Errorf("spectre leaks under muontrap")
		}
	}
	m["attack.ms_per_cell"] = median(cells)
	t0 := time.Now()
	matrix := muontrap.Sweep{Attacks: capped(muontrap.AttackNames(), sz.MaxAttacks), Schemes: muontrap.SecuritySchemes()}
	if _, err := muontrap.NewRunner(muontrap.WithWorkers(nproc())).Sweep(ctx, matrix); err != nil {
		return err
	}
	m["attack.matrix_s"] = time.Since(t0).Seconds()
	return nil
}

// remoteRungs derives the service, fleet, client and telemetry metrics
// from one traced remote iteration.
func remoteRungs(rep remoteReport, spans []span, m map[string]float64) {
	m["muontrap.bulk_local_wall_s"] = rep.BulkLocalS
	m["service.job_p50_ms"] = median(rep.JobMS)
	m["service.job_p90_ms"] = percentile(rep.JobMS, 90) // 113 jobs in a remote-jobs iteration: eleven samples beyond it
	m["service.first_frame_p50_ms"] = median(rep.FirstFrameMS)
	m["service.jobs_per_s"] = float64(len(rep.JobMS)) / rep.LegAWallS
	m["service.submit_ms"] = median(rep.SubmitMS)
	m["service.borndone_ms"] = median(rep.BornDoneMS)
	m["service.stream_attach_ms"] = median(rep.AttachMS)
	m["service.result_fetch_ms"] = median(rep.ResultMS)
	m["service.result_by_key_ms"] = median(rep.ResultByKeyMS)
	m["service.attack_job_ms"] = median(rep.AttackJobMS)
	m["service.journal_kb_per_job"] = rep.JournalKB / float64(max(len(rep.JobMS)+len(rep.ResubmitMS), 1))
	m["service.frames_per_job"] = float64(rep.Frames) / float64(max(len(rep.JobMS), 1))
	m["service.boot_ms"] = rep.BootMS
	m["service.bulk_wall_s"] = rep.BulkDaemonS
	m["service.overhead_ms"] = (rep.BulkDaemonS - rep.BulkLocalS) * 1e3
	m["service.peak_rss_mb"] = rep.DaemonA.PeakRSSMB
	m["fleet.bulk_wall_s"] = rep.BulkFleetS
	m["fleet.overhead_ms"] = (rep.BulkFleetS - rep.BulkLocalS) * 1e3
	m["fleet.overhead_ms_per_cell"] = (rep.BulkFleetS - rep.BulkLocalS) * 1e3 / float64(max(rep.BulkCells, 1))
	m["fleet.register_ms"] = rep.RegisterMS
	m["fleet.dispatches"] = rep.Dispatched
	m["fleet.useful_dispatch_frac"] = float64(rep.BulkCells) / max(rep.Dispatched, 1)
	m["fleet.worker_busy_frac"] = rep.WorkerBusyS / max(rep.BulkFleetS*float64(rep.FleetWorkers), 1e-9)
	m["fleet.store_put_ms"] = rep.StorePutMS
	m["client.retries"] = float64(rep.Retries)
	m["telemetry.scrape_ms"] = median(rep.ScrapeMS)

	self := layerSelf(spans, spanLayer)
	m["service.self_s"] = self["service"]
	m["fleet.self_s"] = self["fleet"]
	m["client.self_s"] = self["client"]
	// The client's share of one result fetch: the call's span minus the
	// round trip inside it.
	st := selfTimes(spans)
	var decodes []float64
	for _, s := range spans {
		if s.Name == "client.Result" {
			decodes = append(decodes, st[s.ID]*1e3)
		}
	}
	m["client.decode_ms"] = median(decodes)
}

// benchRungs reports the benchmark's own costs: the build bench/run.sh
// timed, and the share of the traced iteration spent recording spans
// (span count times the measured cost of one span).
func benchRungs(spans int, tracedWallS float64, m map[string]float64) {
	buildMS, _ := strconv.ParseFloat(os.Getenv("BENCH_BUILD_MS"), 64) // unset outside run.sh: reported as 0
	m["bench.build_s"] = buildMS / 1e3
	tr := newTracer()
	nsPerSpan := nsPerOp(time.Millisecond, func(n int) {
		for i := 0; i < n; i++ {
			_, end := tr.open("rung", "bench.span", 0)
			end()
		}
		tr.spans = tr.spans[:0]
	})
	m["bench.trace_overhead_frac"] = nsPerSpan * float64(spans) / 1e9 / max(tracedWallS, 1e-9)
}
