package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/muontrap"
	"repro/muontrap/client"
)

// remoteReport is what one remote-jobs iteration measures. Leg A is the
// closed loop of small jobs against one daemon; Leg B runs the same bulk
// sweep in-process, through a fresh daemon and through a fresh fleet.
type remoteReport struct {
	LegAWallS float64 `json:"leg_a_wall_s"`
	Jobs      int     `json:"jobs"`
	Failed    int     `json:"failed"`
	Frames    int     `json:"frames"`
	Insts     uint64  `json:"insts"` // committed by freshly simulated cells

	JobMS         []float64 `json:"job_ms"`         // submit to decoded result, every job of the loop
	FirstFrameMS  []float64 `json:"first_frame_ms"` // submit to first SSE frame
	ResubmitMS    []float64 `json:"resubmit_ms"`    // whole-job latency of resubmissions, idle daemon
	AttackJobMS   []float64 `json:"attack_job_ms"`
	SubmitMS      []float64 `json:"submit_ms"`   // POST /v1/jobs, fresh sweeps
	BornDoneMS    []float64 `json:"borndone_ms"` // POST /v1/jobs answered done
	AttachMS      []float64 `json:"attach_ms"`   // stream request to first frame
	ResultMS      []float64 `json:"result_ms"`   // GET result by job id
	ResultByKeyMS []float64 `json:"result_by_key_ms"`
	ScrapeMS      []float64 `json:"scrape_ms"` // GET /metrics, when enabled

	BootMS    float64 `json:"boot_ms"` // Leg A daemon: spawn to healthy
	JournalKB float64 `json:"journal_kb"`
	Retries   uint64  `json:"retries"`
	DaemonA   usage   `json:"daemon_a"`

	BulkCells    int     `json:"bulk_cells"`
	FleetWorkers int     `json:"fleet_workers"`
	BulkLocalS   float64 `json:"bulk_local_s"`
	BulkDaemonS  float64 `json:"bulk_daemon_s"`
	BulkFleetS   float64 `json:"bulk_fleet_s"`
	RegisterMS   float64 `json:"register_ms"` // coordinator healthy to every worker registered
	Dispatched   float64 `json:"dispatched"`
	Duplicates   float64 `json:"duplicates"`
	Steals       float64 `json:"steals"`
	WorkerBusyS  float64 `json:"worker_busy_s"` // CPU seconds of the fleet workers
	StorePutMS   float64 `json:"store_put_ms"`

	AllocMB  float64  `json:"alloc_mb"`
	Problems []string `json:"problems,omitempty"`
}

func (r *remoteReport) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

type spanCtxKey struct{}

// spanRef carries the enclosing span through a context so the HTTP
// transport can parent its round-trip spans.
type spanRef struct {
	trace  string
	parent int
}

// spanTransport records one span per HTTP round trip (request written to
// response headers read), named after the layer behind the URL.
type spanTransport struct {
	tr    *tracer
	layer string
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, _ := req.Context().Value(spanCtxKey{}).(spanRef)
	_, end := t.tr.open(ref.trace, t.layer+".http", ref.parent)
	defer end()
	return http.DefaultTransport.RoundTrip(req)
}

// newClient builds a muontrap/client for one daemon. With a tracer, every
// round trip becomes a child span of the client call that caused it.
func newClient(url string, tr *tracer, layer string, met *client.Metrics) *client.Client {
	opts := []client.Option{client.WithRetries(2), client.WithMetrics(met)}
	if tr != nil {
		opts = append(opts, client.WithHTTPClient(&http.Client{Transport: &spanTransport{tr: tr, layer: layer}}))
	}
	return client.New(url, opts...)
}

// traced opens a span under parent and returns a context that parents
// the HTTP round trips made inside it. Submit and Result are named
// "client.*": their self time is the client's encoding and decoding. A
// stream's self time is the wait for the daemon's frames, so streams are
// named after the layer that is computing.
func traced(ctx context.Context, tr *tracer, trace, name string, parent int) (context.Context, func()) {
	id, end := tr.open(trace, name, parent)
	return context.WithValue(ctx, spanCtxKey{}, spanRef{trace: trace, parent: id}), end
}

// remoteRun is the state of one iteration.
type remoteRun struct {
	in  remoteInput
	tr  *tracer
	dir string
	rep remoteReport
	mu  sync.Mutex // guards rep while the clients run
	met *client.Metrics

	bursts int // resubmission bursts so far
}

// runRemote executes one remote-jobs iteration. tr may be nil.
func runRemote(ctx context.Context, in remoteInput, tr *tracer) (remoteReport, error) {
	dir, err := live.tempDir("remote")
	if err != nil {
		return remoteReport{}, err
	}
	defer os.RemoveAll(dir)
	r := &remoteRun{in: in, tr: tr, dir: dir, met: &client.Metrics{}}

	args := []string{"-cache", filepath.Join(dir, "a")}
	if in.Metrics {
		args = append(args, "-metrics", "-trace-dir", "off")
	}
	a, err := startDaemon(ctx, in.Daemon, dir, "daemon-a", args...)
	if err != nil {
		return r.rep, fmt.Errorf("leg A: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			a.stop()
		}
	}()
	r.rep.BootMS = a.bootS * 1e3
	finished := r.legA(ctx, a)
	// The warm path: one client resubmits every finished sweep to the first
	// daemon, which answers from its result store (born done). A burst takes
	// a quarter of a second and the host's speed changes by the second, so
	// there is one after the closed loop and one after each daemon-backed
	// bulk run, while that daemon idles.
	resubmit := func() { r.resubmit(ctx, a, finished) }
	resubmit()
	if err := r.legB(ctx, resubmit); err != nil {
		return r.rep, fmt.Errorf("leg B: %w", err)
	}
	r.rep.Retries = r.met.Retries()
	for i := 0; in.Metrics && i < 5; i++ {
		t0 := time.Now()
		if _, err := httpGet(ctx, a.url+"/metrics", r.opTimeout()); err != nil {
			r.rep.problem("metrics scrape: %v", err)
		}
		r.rep.ScrapeMS = append(r.rep.ScrapeMS, ms(time.Since(t0)))
	}
	r.rep.JournalKB = dirKB(filepath.Join(dir, "a", "service"))
	r.rep.DaemonA = a.stop()
	stopped = true

	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.rep.AllocMB = float64(m.TotalAlloc) / 1e6
	return r.rep, nil
}

func (r *remoteRun) opTimeout() time.Duration {
	return time.Duration(r.in.OpTimeoS * float64(time.Second))
}

// legA drives the small-job sequence against d: one goroutine per client,
// each sending its next job only after the previous one's result is decoded.
// It returns the finished sweep jobs, per client.
func (r *remoteRun) legA(ctx context.Context, d *daemon) [][]*doneJob {
	start := time.Now()
	var wg sync.WaitGroup
	finished := make([][]*doneJob, len(r.in.Clients))
	for c, seq := range r.in.Clients {
		wg.Add(1)
		go func(c int, seq []remoteJob) {
			defer wg.Done()
			cl := newClient(d.url, r.tr, "service", r.met)
			for n, j := range seq {
				if done := r.runJob(ctx, cl, fmt.Sprintf("job-c%d-%d", c, n), j, nil); done != nil && j.Kind == "sweep" {
					finished[c] = append(finished[c], done)
				}
			}
		}(c, seq)
	}
	wg.Wait()
	r.rep.LegAWallS = time.Since(start).Seconds()
	return finished
}

// resubmit sends every finished sweep to d again and requires the same
// bytes back; the first few are also fetched by content key.
func (r *remoteRun) resubmit(ctx context.Context, d *daemon, finished [][]*doneJob) {
	r.bursts++
	cl := newClient(d.url, r.tr, "service", r.met)
	for c, jobs := range finished {
		for n, prev := range jobs {
			r.runJob(ctx, cl, fmt.Sprintf("rejob%d-c%d-%d", r.bursts, c, n), remoteJob{Kind: "borndone"}, prev)
			if len(r.rep.ResultByKeyMS) < 16 {
				// Content-keyed fetch of a stored result, outside any job's clock.
				kctx, cancel := context.WithTimeout(ctx, r.opTimeout())
				t0 := time.Now()
				if _, err := cl.ResultByKey(kctx, prev.key); err != nil {
					r.rep.problem("result by key %s: %v", prev.key, err)
				}
				cancel()
				r.rep.ResultByKeyMS = append(r.rep.ResultByKeyMS, ms(time.Since(t0)))
			}
		}
	}
}

// doneJob remembers what a finished job returned, for resubmissions.
type doneJob struct {
	sweep  muontrap.Sweep
	key    string
	result []byte
}

// runJob performs one job: submit, stream to the terminal frame, fetch
// and decode the result. With prev set it resubmits that finished job's
// sweep and requires the same bytes back. Any error, timeout or wrong
// answer counts the job as failed; nothing here can hang past the
// per-operation timeout.
func (r *remoteRun) runJob(ctx context.Context, cl *client.Client, trace string, j remoteJob, prev *doneJob) *doneJob {
	ctx, cancel := context.WithTimeout(ctx, r.opTimeout())
	defer cancel()
	sw := j.Sweep
	if prev != nil {
		sw = prev.sweep
	}
	root, endJob := r.tr.open(trace, "job."+j.Kind, 0)
	defer endJob()

	t0 := time.Now()
	sctx, end := traced(ctx, r.tr, trace, "client.Submit", root)
	job, err := cl.Submit(sctx, sw)
	end()
	submitMS := ms(time.Since(t0))
	if err != nil {
		r.fail("%s: submit: %v", trace, err)
		return nil
	}

	tStream := time.Now()
	var first time.Time
	frames := 0
	sctx, end = traced(ctx, r.tr, trace, "service.Stream", root)
	term, err := cl.Stream(sctx, job.ID, func(muontrap.Progress) {
		if frames == 0 {
			first = time.Now()
		}
		frames++
	})
	end()
	if err != nil {
		r.fail("%s: stream: %v", trace, err)
		return nil
	}
	if frames == 0 {
		first = time.Now() // the terminal frame was the first
	}
	frames++

	tResult := time.Now()
	sctx, end = traced(ctx, r.tr, trace, "client.Result", root)
	res, err := cl.Result(sctx, job.ID)
	end()
	if err != nil {
		r.fail("%s: result: %v", trace, err)
		return nil
	}
	total, resultMS := time.Since(t0), ms(time.Since(tResult))
	out, err := json.Marshal(res)
	if err != nil {
		r.fail("%s: %v", trace, err)
		return nil
	}
	want := len(sw.Workloads)*len(sw.Schemes)*max(len(sw.Scales), 1) + len(sw.Attacks)*len(sw.Schemes)
	switch {
	case term.State != muontrap.JobDone:
		r.fail("%s: ended %s: %s", trace, term.State, term.Error)
		return nil
	case len(res.Runs) != want:
		r.fail("%s: %d cells in the result, want %d", trace, len(res.Runs), want)
		return nil
	case prev != nil && string(out) != string(prev.result):
		r.fail("%s: resubmission returned a different result", trace)
		return nil
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &r.rep
	rep.Jobs++
	if prev == nil {
		rep.Frames += frames
		rep.JobMS = append(rep.JobMS, ms(total))
		rep.FirstFrameMS = append(rep.FirstFrameMS, ms(first.Sub(t0)))
		rep.AttachMS = append(rep.AttachMS, ms(first.Sub(tStream)))
		rep.ResultMS = append(rep.ResultMS, resultMS)
	}
	switch {
	case prev != nil:
		rep.ResubmitMS = append(rep.ResubmitMS, ms(total))
		if job.State == muontrap.JobDone {
			rep.BornDoneMS = append(rep.BornDoneMS, submitMS)
		}
	case j.Kind == "attack":
		rep.AttackJobMS = append(rep.AttackJobMS, ms(total))
		rep.SubmitMS = append(rep.SubmitMS, submitMS)
	default:
		rep.SubmitMS = append(rep.SubmitMS, submitMS)
		for _, run := range res.Runs {
			rep.Insts += run.Instructions
		}
	}
	return &doneJob{sweep: sw, key: term.CacheKey, result: out}
}

func (r *remoteRun) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rep.Jobs++
	r.rep.Failed++
	r.rep.problem(format, args...)
}

// legB runs the bulk sweep three ways and requires byte-identical JSON.
// between runs after each of the two daemon-backed ways.
func (r *remoteRun) legB(ctx context.Context, between func()) error {
	rep := &r.rep
	sw := r.in.Bulk
	rep.BulkCells = len(sw.Workloads) * len(sw.Schemes) * max(len(sw.Scales), 1)
	rep.FleetWorkers = r.in.Fleet

	// In-process reference.
	root, endRoot := r.tr.open("bulk-local", "job.bulk-local", 0)
	t0 := time.Now()
	_, endSweep := r.tr.open("bulk-local", "muontrap.Sweep", root)
	local, err := muontrap.NewRunner(muontrap.WithWorkers(r.in.Workers)).Sweep(ctx, sw)
	endSweep()
	if err != nil {
		endRoot()
		return fmt.Errorf("in-process bulk sweep: %w", err)
	}
	want, err := json.Marshal(local)
	endRoot()
	if err != nil {
		return err
	}
	rep.BulkLocalS = time.Since(t0).Seconds()
	for _, run := range local.Runs {
		rep.Insts += 3 * run.Instructions // simulated once per way
	}

	// Through a fresh daemon.
	d, err := startDaemon(ctx, r.in.Daemon, r.dir, "daemon-b", "-cache", filepath.Join(r.dir, "b"))
	if err != nil {
		return err
	}
	rep.BulkDaemonS, err = r.bulkVia(ctx, d, "service", "bulk-daemon", want)
	d.stop()
	if err != nil {
		return err
	}
	between()

	// Through a fresh coordinator with one single-slot worker per CPU.
	fl, err := startFleet(ctx, r.in.Daemon, r.dir, r.in.Fleet)
	if err != nil {
		return err
	}
	rep.RegisterMS = fl.registerMS
	rep.BulkFleetS, err = r.bulkVia(ctx, fl.co, "fleet", "bulk-fleet", want)
	if err == nil {
		if b, herr := httpGet(ctx, fl.co.url+"/v1/healthz", r.opTimeout()); herr == nil {
			var h map[string]any
			if json.Unmarshal(b, &h) == nil {
				rep.Dispatched, _ = h["dispatched"].(float64)
			}
		}
		if r.tr != nil {
			rep.StorePutMS = storePutMS(fl.co.url)
		}
	}
	rep.WorkerBusyS = fl.stop()
	if err == nil {
		between()
	}
	return err
}

// fleet is a coordinator with its registered workers.
type fleet struct {
	co         *daemon
	workers    []*daemon
	registerMS float64 // coordinator healthy to every worker alive in its registry
}

// startFleet boots a coordinator and n single-slot workers on loopback
// and waits until the coordinator lists every worker as alive.
func startFleet(ctx context.Context, bin, dir string, n int) (*fleet, error) {
	co, err := startDaemon(ctx, bin, dir, "coordinator", "-coordinator", "-per-worker", "1",
		"-cache", filepath.Join(dir, "co"))
	if err != nil {
		return nil, err
	}
	fl := &fleet{co: co}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		w, err := startDaemon(ctx, bin, dir, fmt.Sprintf("worker-%d", i),
			"-workers", "1", "-heartbeat-interval", "200ms",
			"-cache", filepath.Join(dir, fmt.Sprintf("w%d", i)),
			"-join", co.url, "-advertise", "http://{addr}")
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl.workers = append(fl.workers, w)
	}
	_, err = pollJSON(ctx, co, "/fleet/v1/workers", 15*time.Second, func(b []byte) bool {
		var v struct {
			Workers []struct {
				Alive bool `json:"alive"`
			} `json:"workers"`
		}
		if json.Unmarshal(b, &v) != nil {
			return false
		}
		alive := 0
		for _, w := range v.Workers {
			if w.Alive {
				alive++
			}
		}
		return alive >= n
	})
	if err != nil {
		fl.stop()
		return nil, fmt.Errorf("fleet registration: %w", err)
	}
	fl.registerMS = ms(time.Since(t0))
	return fl, nil
}

// stop shuts the fleet down and returns the CPU seconds its workers used.
func (f *fleet) stop() (workerCPU float64) {
	for _, w := range f.workers {
		workerCPU += w.stop().CPUS
	}
	f.co.stop()
	return workerCPU
}

// bulkVia submits the bulk sweep to d, waits for the result and checks it
// against the in-process bytes. It returns the submit-to-result wall.
func (r *remoteRun) bulkVia(ctx context.Context, d *daemon, layer, trace string, want []byte) (float64, error) {
	ctx, cancel := context.WithTimeout(ctx, r.opTimeout())
	defer cancel()
	cl := newClient(d.url, r.tr, layer, nil)
	root, endRoot := r.tr.open(trace, "job."+trace, 0)
	defer endRoot()
	t0 := time.Now()
	sctx, end := traced(ctx, r.tr, trace, layer+".Sweep", root)
	res, err := cl.Sweep(sctx, r.in.Bulk)
	end()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", trace, err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	wall := time.Since(t0).Seconds()
	r.rep.Jobs++
	if string(got) != string(want) {
		r.rep.Failed++
		r.rep.problem("%s: result differs from the in-process sweep", trace)
	}
	return wall, nil
}

// dirKB sums the sizes of the files under dir, in KB.
func dirKB(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil // a missing directory is simply empty
	})
	return float64(total) / 1024
}
