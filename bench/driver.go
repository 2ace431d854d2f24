package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one invocation of the driver on one workload.
type runConfig struct {
	root     string
	workload string
	seed     uint64
	seconds  float64 // iterate while the next iteration is expected to end within this ...
	iters    int     // ... or exactly this many times, when > 0
	sz       sizes
	daemon   string // muontrapd binary
}

// passResult is what one pass (untraced or traced) over one workload
// yields: the metric values, how they spread over the iterations, and the
// outcome of the correctness checks.
type passResult struct {
	Metrics map[string]float64 `json:"metrics"`
	Samples map[string]sample  `json:"samples,omitempty"`
	// HostFactor is what the end-to-end times were scaled by (see probe.go)
	// and Raw the unscaled medians.
	HostFactor float64            `json:"host_factor,omitempty"`
	Raw        map[string]float64 `json:"raw,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Problems   []string           `json:"problems,omitempty"`
	// Detail is the last iteration's raw report, for a reader of the set
	// file; no metric is computed from it.
	Detail any `json:"detail,omitempty"`
}

func (p *passResult) correct() bool { return p.Failed == 0 && len(p.Problems) == 0 }

// timed collects the per-iteration values of the end-to-end metrics; each
// is reported as the median over the iterations.
type timed map[string][]float64

func (t timed) add(name string, v float64) { t[name] = append(t[name], v) }

// hostTime is the power of the host factor an end-to-end metric is scaled
// by: 1 for a time, -1 for a rate, 0 (not listed) for memory.
var hostTime = map[string]float64{"setup_s": 1, "cold_wall_s": 1, "warm_wall_ms": 1, "cpu_s": 1, "sim_minsts_per_s": -1}

// into reports every collected metric as the median over the iterations,
// times and rates scaled by factor to the nominal host speed.
func (t timed) into(p *passResult, factor float64) {
	p.Metrics, p.Samples, p.Raw = map[string]float64{}, map[string]sample{}, map[string]float64{}
	for name, xs := range t {
		p.Raw[name] = median(xs)
		scale := math.Pow(factor, hostTime[name])
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = x * scale
		}
		s := summarise(scaled)
		p.Metrics[name] = s.Median
		p.Samples[name] = s
	}
}

// childTimeout bounds one child process; an iteration that exceeds it
// counts as failed instead of hanging the run.
const childTimeout = 120 * time.Second

// more reports whether another iteration fits: the loop always takes one
// and starts a further one only while it is expected to end within the
// requested time, so a run's length is bounded by --seconds whatever the
// host's speed (the driver's budget is a total over all runs).
func (c runConfig) more(done int, elapsed time.Duration) bool {
	if c.iters > 0 {
		return done < c.iters
	}
	if done == 0 {
		return true
	}
	mean := elapsed.Seconds() / float64(done)
	return elapsed.Seconds()+mean <= c.seconds
}

// runUntraced measures the end-to-end metrics of one workload, with the
// host-speed probe running beside the measured work.
func runUntraced(ctx context.Context, c runConfig) (passResult, error) {
	var res passResult
	t := timed{}
	probe := startProbe()
	var err error
	if c.workload == wlRemote {
		err = c.remoteWorkload(ctx, &res, t)
	} else {
		err = c.sweepWorkload(ctx, &res, t)
	}
	res.HostFactor = probe.finish()
	if err != nil {
		return res, err
	}
	t.into(&res, res.HostFactor)
	return res, nil
}

// sweepWorkload runs spec-sweep, parsec-sweep or ckpt-matrix: every cold
// iteration is a fresh child process calling Runner.Sweep.
func (c runConfig) sweepWorkload(ctx context.Context, res *passResult, t timed) error {
	in, err := genSweep(c.workload, c.seed, c.sz)
	if err != nil {
		return err
	}
	if c.workload == wlCkpt {
		in.Golden = filepath.Join(c.root, "muontrap", "testdata", "security_matrix.golden")
	}

	// Set-up: what a cold process pays before it can simulate — an empty
	// cache directory, process start, runner construction and identifier
	// resolution. It lasts milliseconds, so it is repeated in a batch before
	// the first iteration and after each one — the host's speed differs from
	// one moment to the next — and the median over all of them is reported.
	setUp := func() error {
		for i := 0; i < c.sz.SetupReps; i++ {
			t0 := time.Now()
			ready := in
			if ready.CacheDir, err = live.tempDir("cache"); err != nil {
				return err
			}
			if _, _, err := runChild(ctx, "ready", ready, nil, nil, childTimeout); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			t.add("setup_s", time.Since(t0).Seconds())
			os.RemoveAll(ready.CacheDir)
		}
		return nil
	}
	if err := setUp(); err != nil {
		return err
	}

	var first sweepReport
	start := time.Now()
	for n := 0; c.more(n, time.Since(start)); n++ {
		it := in
		if it.CacheDir, err = live.tempDir("cache"); err != nil {
			return err
		}
		var rep sweepReport
		cpuS, _, err := runChild(ctx, "sweep", it, &rep, nil, childTimeout)
		cells := len(it.Sweep.Workloads)*len(it.Sweep.Schemes) + len(it.Sweep.Attacks)*len(it.Sweep.Schemes)
		res.Attempted += cells
		if err != nil {
			res.Failed += cells
			res.Problems = append(res.Problems, err.Error())
			continue
		}
		if n == 0 {
			first = rep
		}
		res.Failed += digestMismatches(first.Digests, rep.Digests)
		rep.Digests = nil
		res.Detail = rep
		res.Problems = append(res.Problems, rep.Problems...)
		t.add("cold_wall_s", rep.WallS)
		t.add("sim_minsts_per_s", float64(rep.Insts)/1e6/rep.WallS)
		t.add("alloc_mb", rep.AllocMB)
		t.add("peak_rss_mb", rep.PeakRSSMB)
		t.add("cpu_s", cpuS)
		// The warm path: a fresh process that re-emits the identical
		// result from the directory the cold iteration populated — what a
		// cmd/figures user pays for asking for the same figure again.
		var warm []float64
		for w := 0; w < c.sz.WarmProcs; w++ {
			var lite sweepReport
			_, wall, err := runChild(ctx, "sweep-lite", it, &lite, nil, childTimeout)
			res.Attempted++
			if err != nil || lite.ResultSHA != rep.ResultSHA {
				res.Failed++
				res.Problems = append(res.Problems, fmt.Sprintf("warm re-emit: err=%v, identical=%v", err, lite.ResultSHA == rep.ResultSHA))
				continue
			}
			warm = append(warm, wall*1e3)
		}
		t.add("warm_wall_ms", median(warm))
		os.RemoveAll(it.CacheDir)
		if err := setUp(); err != nil {
			return err
		}
	}
	return nil
}

// digestMismatches counts cells whose digest differs from (or is missing
// in) the first iteration's.
func digestMismatches(want, got map[string]string) int {
	n := 0
	for k, d := range want {
		if got[k] != d {
			n++
		}
	}
	return n
}

// remoteWorkload runs remote-jobs: every cold iteration is a fresh child
// that boots its own daemons, so in-process memos and result stores start
// empty each time.
func (c runConfig) remoteWorkload(ctx context.Context, res *passResult, t timed) error {
	in := genRemote(c.seed, c.sz, c.daemon)
	// Set-up is booting the daemons; like the sweeps' it is sampled before
	// the first iteration and after each one.
	setUp := func() error {
		for i := 0; i < (c.sz.SetupReps+3)/4; i++ {
			s, err := bootAll(ctx, in)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			t.add("setup_s", s)
		}
		return nil
	}
	if err := setUp(); err != nil {
		return err
	}

	start := time.Now()
	for n := 0; c.more(n, time.Since(start)); n++ {
		var rep remoteReport
		cpuS, _, err := runChild(ctx, "remote", in, &rep, nil, childTimeout)
		if err != nil {
			res.Attempted++
			res.Failed++
			res.Problems = append(res.Problems, err.Error())
			continue
		}
		res.Attempted += rep.Jobs
		res.Failed += rep.Failed
		res.Problems = append(res.Problems, rep.Problems...)
		wall := rep.LegAWallS + rep.BulkLocalS + rep.BulkDaemonS + rep.BulkFleetS
		t.add("cold_wall_s", wall)
		t.add("sim_minsts_per_s", float64(rep.Insts)/1e6/wall)
		t.add("warm_wall_ms", median(rep.ResubmitMS))
		t.add("alloc_mb", rep.AllocMB)
		t.add("peak_rss_mb", rep.DaemonA.PeakRSSMB)
		t.add("cpu_s", cpuS) // the kernel folds the reaped daemons into the child's usage
		res.Detail = rep
		if err := setUp(); err != nil {
			return err
		}
	}
	return nil
}

// bootAll is the remote workload's set-up: boot a daemon until it is
// healthy, then a coordinator and its workers until every worker is
// registered. It returns the seconds until all of that was ready; the
// shutdown afterwards is not part of it.
func bootAll(ctx context.Context, in remoteInput) (float64, error) {
	dir, err := live.tempDir("boot")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	d, err := startDaemon(ctx, in.Daemon, dir, "daemon", "-cache", filepath.Join(dir, "a"))
	if err != nil {
		return 0, err
	}
	defer d.stop()
	fl, err := startFleet(ctx, in.Daemon, dir, in.Fleet)
	if err != nil {
		return 0, err
	}
	defer fl.stop()
	return time.Since(t0).Seconds(), nil
}
