package faultinject_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/service"
	"repro/internal/service/faultinject"
	"repro/internal/telemetry"
	"repro/muontrap"
	"repro/muontrap/client"
)

// The acceptance gate for multi-tenant hardening: one daemon behind a
// deterministic fault injector (dropped connections, injected 500s,
// added latency) serves a fleet of retrying clients through submission
// load, per-tenant quota shedding, interactive-over-bulk preemption,
// and a mid-sweep daemon kill + restart — and every surviving job's
// result must be byte-identical to an unloaded, single-client run of
// the same sweep. CI runs this under -race with -short (reduced fleet).

const cadence = 2000 // checkpoint cadence; small so preemption/kill always have a recent checkpoint

func smallSweep(scale float64) muontrap.Sweep {
	return muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"},
		Schemes:   []muontrap.Scheme{""},
		Scales:    []float64{scale},
	}
}

func longSweep(scale float64) muontrap.Sweep {
	return muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"},
		Schemes:   []muontrap.Scheme{"muontrap"},
		Scales:    []float64{scale},
	}
}

// heldSweep is a bulk job the test only ever holds at the gate and then
// cancels: it keeps whatever scheduling state the test drove it into, so
// the assertions against it can never race a surprise completion.
// Distinct scales keep distinct jobs off each other's cache keys.
func heldSweep(scale float64) muontrap.Sweep {
	return muontrap.Sweep{
		Workloads: []muontrap.Workload{"mcf"},
		Schemes:   []muontrap.Scheme{"insecure"},
		Scales:    []float64{scale},
	}
}

// marshalResult renders a result to canonical JSON for byte comparison.
func marshalResult(t *testing.T, res *muontrap.SweepResult) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// baseline simulates sw unloaded and in-process — no daemon, no faults,
// no concurrency with other sweeps — at the same checkpoint cadence the
// daemon runs, and returns the canonical JSON of its result. The run
// memo is reset first so the baseline never inherits state from the
// loaded runs it is judging.
func baseline(t *testing.T, dir string, sw muontrap.Sweep) string {
	t.Helper()
	figures.ResetRunCache()
	r := muontrap.NewRunner(muontrap.WithCacheDir(dir), muontrap.WithCheckpointEvery(cadence))
	res, err := r.Sweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	figures.ResetRunCache()
	return marshalResult(t, res)
}

// gatedBackend runs each attempt on a local muontrap.Runner keyed like
// the daemon's own (cache directory and cadence), but holds bulk attempts
// at a gate while it is shut. A held attempt is running as far as the
// plane can tell, yet computes nothing until the gate opens or its
// context is cancelled — so what the test observes about scheduling never
// depends on how fast the simulator is.
type gatedBackend struct {
	dir  string
	mu   sync.Mutex
	open chan struct{} // closed while the gate is open
}

func newGatedBackend(dir string) *gatedBackend {
	g := &gatedBackend{dir: dir, open: make(chan struct{})}
	close(g.open)
	return g
}

// shut holds every bulk attempt that reaches the gate from now on.
func (g *gatedBackend) shut() {
	g.mu.Lock()
	g.open = make(chan struct{})
	g.mu.Unlock()
}

// release lets every held bulk attempt, and every later one, through.
func (g *gatedBackend) release() {
	g.mu.Lock()
	close(g.open)
	g.mu.Unlock()
}

func (g *gatedBackend) Run(ctx context.Context, job muontrap.Job, resume bool, progress func(muontrap.Progress)) (*muontrap.SweepResult, error) {
	if job.Priority != muontrap.PriorityInteractive {
		g.mu.Lock()
		open := g.open
		g.mu.Unlock()
		select {
		case <-open:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return muontrap.NewRunner(
		muontrap.WithCacheDir(g.dir),
		muontrap.WithCheckpointEvery(cadence),
		muontrap.WithResume(resume),
		muontrap.WithProgress(progress),
	).Sweep(ctx, job.Sweep)
}

// eventually retries an operation that may be eaten by an injected
// fault (the test harness's own control-plane calls don't ride the
// client retry budget).
func eventually(t *testing.T, what string, f func() error) {
	t.Helper()
	var err error
	for i := 0; i < 10; i++ {
		if err = f(); err == nil {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s: %v", what, err)
}

// waitJobState polls until the job reaches want.
func waitJobState(t *testing.T, c *client.Client, id string, want muontrap.JobState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		job, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatalf("polling %s: %v", id, err)
		}
		if job.State == want {
			return
		}
		if job.State.Terminal() {
			t.Fatalf("job %s reached %s while waiting for %s (error: %s)", id, job.State, want, job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, job.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// histogramBuckets extracts the cumulative (le, count) pairs of one
// tenant-labelled histogram from a text exposition, in le order.
func histogramBuckets(body, family, tenant string) (les []float64, counts []uint64) {
	prefix := family + `_bucket{le="`
	suffix := `",tenant="` + tenant + `"}`
	for _, l := range strings.Split(body, "\n") {
		if !strings.HasPrefix(l, prefix) {
			continue
		}
		rest := strings.TrimPrefix(l, prefix)
		i := strings.Index(rest, suffix)
		if i < 0 {
			continue
		}
		leStr, nStr := rest[:i], strings.TrimSpace(rest[i+len(suffix):])
		le := math.Inf(1)
		if leStr != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(leStr, 64); err != nil {
				continue
			}
		}
		n, err := strconv.ParseUint(nStr, 10, 64)
		if err != nil {
			continue
		}
		les = append(les, le)
		counts = append(counts, n)
	}
	return les, counts
}

// histogramCount returns the histogram's total observation count (its
// +Inf bucket), 0 when the series is absent.
func histogramCount(body, family, tenant string) uint64 {
	les, counts := histogramBuckets(body, family, tenant)
	for i, le := range les {
		if math.IsInf(le, 1) {
			return counts[i]
		}
	}
	return 0
}

// histogramP99 computes the p99 upper bound from exported cumulative
// buckets: the smallest le whose cumulative count covers 99% of
// observations.
func histogramP99(t *testing.T, body, family, tenant string) float64 {
	t.Helper()
	les, counts := histogramBuckets(body, family, tenant)
	total := histogramCount(body, family, tenant)
	if total == 0 {
		t.Fatalf("histogram %s{tenant=%q} absent or empty in scrape", family, tenant)
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	for i, le := range les {
		if counts[i] >= rank {
			return le
		}
	}
	return math.Inf(1)
}

// hasSlot reports whether the snapshot store holds any checkpoint chain
// slot.
func hasSlot(snapDir string) bool {
	ents, err := os.ReadDir(snapDir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".slot") {
			return true
		}
	}
	return false
}

func TestLoadSmokeUnderFaults(t *testing.T) {
	figures.ResetRunCache()
	defer figures.ResetRunCache()
	ctx := context.Background()

	dir := t.TempDir()
	gate := newGatedBackend(dir)
	cfg := service.Config{
		Dir:             dir,
		Backend:         gate,
		MaxJobs:         2,
		MaxQueue:        128,
		CheckpointEvery: cadence,
		RetryAfter:      time.Second,
		Metrics:         telemetry.NewRegistry(),
		Tenants: []service.Tenant{
			{Name: "alice", Key: "sk-alice"},                              // unlimited: the bulk fleet
			{Name: "bob", Key: "sk-bob", MaxQueued: 1, MaxRunning: 1},     // tight quotas: the noisy neighbor
			{Name: "carol", Key: "sk-carol", MaxQueued: 4, MaxRunning: 1}, // the interactive user
		},
	}
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw := faultinject.NewSwitchable(srv)
	inj := &faultinject.Injector{
		Inner:      sw,
		DropEvery:  13,
		ErrorEvery: 7,
		DelayEvery: 5,
		Delay:      2 * time.Millisecond,
	}
	hs := httptest.NewServer(inj)
	defer hs.Close()
	defer func() { srv.Close() }() // srv is reassigned by the kill phase

	alice := client.New(hs.URL, client.WithAPIKey("sk-alice"), client.WithRetries(8))

	// ---- auth: the daemon refuses unauthenticated and miskeyed calls,
	// while the health probe stays open.
	for _, bad := range []*client.Client{
		client.New(hs.URL, client.WithRetries(4)),
		client.New(hs.URL, client.WithAPIKey("sk-wrong"), client.WithRetries(4)),
	} {
		var apiErr *client.APIError
		if _, err := bad.Jobs(ctx); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnauthorized || apiErr.Code != "unauthorized" {
			t.Fatalf("unauthenticated list: err = %v, want 401 unauthorized", err)
		}
	}
	eventually(t, "healthz without a key", func() error {
		resp, err := http.Get(hs.URL + "/v1/healthz")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("healthz status %d", resp.StatusCode)
		}
		return nil
	})

	// ---- concurrent fleet: retrying clients push a few distinct small
	// sweeps through the faulty front door; every client sharing a sweep
	// must read back the identical result, and that result must match
	// the unloaded baseline.
	scales := []float64{0.02, 0.03, 0.04}
	baselines := make(map[float64]string, len(scales))
	for _, sc := range scales {
		baselines[sc] = baseline(t, t.TempDir(), smallSweep(sc))
	}
	clientsPerSweep := 5
	if testing.Short() {
		clientsPerSweep = 2
	}
	n := clientsPerSweep * len(scales)
	type outcome struct {
		scale     float64
		res       string
		submitLat time.Duration
		err       error
	}
	outcomes := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sc := scales[i%len(scales)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New(hs.URL, client.WithAPIKey("sk-alice"), client.WithRetries(8))
			t0 := time.Now()
			job, err := c.Submit(ctx, smallSweep(sc))
			lat := time.Since(t0)
			if err != nil {
				outcomes <- outcome{err: fmt.Errorf("submit %g: %w", sc, err)}
				return
			}
			if job.Tenant != "alice" {
				outcomes <- outcome{err: fmt.Errorf("job %s attributed to tenant %q, want alice", job.ID, job.Tenant)}
				return
			}
			if _, err := c.Stream(ctx, job.ID, nil); err != nil {
				outcomes <- outcome{err: fmt.Errorf("stream %s: %w", job.ID, err)}
				return
			}
			res, err := c.Result(ctx, job.ID)
			if err != nil {
				outcomes <- outcome{err: fmt.Errorf("result %s: %w", job.ID, err)}
				return
			}
			outcomes <- outcome{scale: sc, res: marshalResult(t, res), submitLat: lat}
		}()
	}
	wg.Wait()
	close(outcomes)
	var lats []time.Duration
	for o := range outcomes {
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res != baselines[o.scale] {
			t.Fatalf("scale %g: loaded result differs from unloaded baseline\nloaded:   %s\nbaseline: %s", o.scale, o.res, baselines[o.scale])
		}
		lats = append(lats, o.submitLat)
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	// p99 submit latency pin. The bound is deliberately loose — it is a
	// tripwire for retry storms and scheduler lock contention, not a
	// benchmark — but a daemon that serializes admissions behind running
	// simulations, or a client that retries without backoff caps, blows
	// through it.
	if p99 := lats[(len(lats)*99)/100]; p99 > 30*time.Second {
		t.Fatalf("p99 submit latency %v under fault-injected load", p99)
	}

	// ---- mid-run observability: with the daemon still under fault-
	// injected load, a live /metrics scrape (through the same faulty front
	// door, so it is retried like everything else) must export alice's job
	// latency histogram, and the p99 it implies must be bounded — the same
	// tripwire as the submit-latency pin, read from the daemon's own
	// telemetry instead of the clients' stopwatches.
	var exposition string
	eventually(t, "scrape /metrics mid-run", func() error {
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /metrics status %d", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		exposition = string(b)
		return nil
	})
	if got := histogramCount(exposition, "muontrap_service_job_seconds", "alice"); got < uint64(n) {
		t.Fatalf("job latency histogram exports %d alice observations mid-run, want >= %d:\n%s",
			got, n, exposition)
	}
	if p99 := histogramP99(t, exposition, "muontrap_service_job_seconds", "alice"); p99 > 120 {
		t.Fatalf("exported p99 job latency %.3gs under fault-injected load, want <= 120s", p99)
	}
	if !strings.Contains(exposition, "muontrap_service_jobs_submitted_total") {
		t.Fatal("scrape missing the submission counter family")
	}

	// ---- per-tenant quota shedding: bob (max 1 queued, 1 running)
	// floods distinct sweeps and must be shed with 429 + Retry-After
	// while alice's daemon stays serviceable. bob deliberately runs
	// without retries so the shed response surfaces. The gate stays shut
	// from here until the preemption is observed: bob's running job must
	// still be running when his queued job's synchronous cancel is
	// asserted below.
	gate.shut()
	bob := client.New(hs.URL, client.WithAPIKey("sk-bob"))
	var bobJobs []muontrap.Job
	var shed *client.APIError
	for i := 0; shed == nil && i < 40; i++ {
		job, err := bob.Submit(ctx, heldSweep(40+float64(i)))
		switch {
		case err == nil:
			bobJobs = append(bobJobs, job)
		case errors.As(err, &shed) && shed.Status == http.StatusTooManyRequests:
		default:
			shed = nil // injected fault, not a shed: try again
			time.Sleep(20 * time.Millisecond)
		}
	}
	if shed == nil {
		t.Fatal("over-quota tenant was never shed with 429")
	}
	if shed.Code != "over_quota" || shed.RetryAfter <= 0 {
		t.Fatalf("shed response: code %q, Retry-After %v; want over_quota with a positive hint", shed.Code, shed.RetryAfter)
	}
	// Cancel queued-first: bob's later jobs never held a runner slot
	// (his running quota is 1), so their DELETE must answer synchronous
	// cancelled; the running one unwinds through the normal async path.
	for i := len(bobJobs) - 1; i >= 0; i-- {
		job := bobJobs[i]
		var got muontrap.Job
		eventually(t, "cancel bob's job", func() error {
			j, err := bob.Cancel(ctx, job.ID)
			got = j
			return err
		})
		if i > 0 && got.State != muontrap.JobCancelled {
			t.Fatalf("queued job %s: DELETE answered state %q, want synchronous cancelled", job.ID, got.State)
		}
		waitJobState(t, alice, job.ID, muontrap.JobCancelled, 15*time.Second)
	}
	// Cross-tenant mutation is forbidden: alice may see bob's job but
	// not resume it. (Retried inline: a dropped connection on this
	// non-idempotent POST surfaces as a transport error, not a 403.)
	eventually(t, "cross-tenant resume refusal", func() error {
		_, err := alice.Resume(ctx, bobJobs[0].ID)
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusForbidden {
			return nil
		}
		return fmt.Errorf("err = %v, want 403", err)
	})

	// ---- preemption: both slots run alice's bulk sweeps; carol's
	// interactive job must claw a slot back (one bulk job returns to
	// queued), finish, and the preempted sweep must still converge to
	// the byte-identical result. The shut gate holds both victims, so
	// they stay running however long carol's submission is backed off by
	// injected faults.
	b1, err := alice.Submit(ctx, longSweep(0.5))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := alice.Submit(ctx, longSweep(0.52))
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, alice, b1.ID, muontrap.JobRunning, 30*time.Second)
	waitJobState(t, alice, b2.ID, muontrap.JobRunning, 30*time.Second)
	// b3 pins the preemption observable: it sits at the head of the bulk
	// queue, so when carol's interactive job finishes, the freed slot
	// goes to b3 (FIFO) and the preempted victim measurably stays queued
	// instead of being re-dispatched in the same instant. The gate holds
	// it until it is cancelled once the observation is made.
	b3, err := alice.Submit(ctx, heldSweep(90))
	if err != nil {
		t.Fatal(err)
	}
	carol := client.New(hs.URL, client.WithAPIKey("sk-carol"), client.WithRetries(8))
	cj, err := carol.Submit(ctx, smallSweep(0.05), client.WithPriority(muontrap.PriorityInteractive))
	if err != nil {
		t.Fatal(err)
	}
	if cj.Priority != muontrap.PriorityInteractive {
		t.Fatalf("carol's job priority %q, want interactive", cj.Priority)
	}
	// The preemption signature: a bulk job that was running is back in
	// the queue while the daemon works on carol's job.
	preempted := ""
	for deadline := time.Now().Add(60 * time.Second); preempted == ""; {
		if time.Now().After(deadline) {
			j1, _ := alice.Job(ctx, b1.ID)
			j2, _ := alice.Job(ctx, b2.ID)
			j3, _ := alice.Job(ctx, b3.ID)
			jc, _ := carol.Job(ctx, cj.ID)
			t.Fatalf("no bulk job returned to queued after an interactive submission (b1=%s b2=%s b3=%s carol=%s)",
				j1.State, j2.State, j3.State, jc.State)
		}
		for _, id := range []string{b1.ID, b2.ID} {
			job, err := alice.Job(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if job.State == muontrap.JobQueued {
				preempted = id
			}
		}
		time.Sleep(time.Millisecond)
	}
	eventually(t, "cancel the queue-pinning job", func() error {
		_, err := alice.Cancel(ctx, b3.ID)
		return err
	})
	waitJobState(t, alice, b3.ID, muontrap.JobCancelled, 15*time.Second)
	gate.release()
	if term, err := carol.Stream(ctx, cj.ID, nil); err != nil || term.State != muontrap.JobDone {
		t.Fatalf("interactive job under preemption: state %v, err %v", term.State, err)
	}
	// Both bulk sweeps — including the preempted one — run to done on
	// the same stream connection a client would have held open, and
	// byte-match the unloaded baseline.
	for _, id := range []string{b1.ID, b2.ID} {
		if term, err := alice.Stream(ctx, id, nil); err != nil || term.State != muontrap.JobDone {
			t.Fatalf("bulk job %s: state %v, err %v", id, term.State, err)
		}
	}
	t.Logf("preempted bulk job: %s", preempted)
	for id, sc := range map[string]float64{b1.ID: 0.5, b2.ID: 0.52} {
		res, err := alice.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := marshalResult(t, res), baseline(t, t.TempDir(), longSweep(sc)); got != want {
			t.Fatalf("preemption round-trip corrupted scale %g:\ngot:  %s\nwant: %s", sc, got, want)
		}
	}

	// ---- kill mid-sweep: once the running job has persisted a mid-run
	// checkpoint, the daemon "dies" (service closed with no terminal
	// journaling, the front door answering 503 like a balancer with no
	// backend), restarts over the same directory, surfaces the job as
	// interrupted, resumes it from the checkpoint — and the result must
	// still byte-match the unloaded baseline.
	figures.ResetRunCache()
	kj, err := alice.Submit(ctx, longSweep(1.5))
	if err != nil {
		t.Fatal(err)
	}
	// Kill a *running* job: wait for kj to start, so the slot the poll
	// below finds is kj's own checkpoint, never a kill while it is queued.
	waitJobState(t, alice, kj.ID, muontrap.JobRunning, 30*time.Second)
	snapDir := filepath.Join(dir, "snapshots")
	for deadline := time.Now().Add(2 * time.Minute); !hasSlot(snapDir); {
		if time.Now().After(deadline) {
			t.Fatal("no mid-run checkpoint appeared before the kill deadline")
		}
		if job, err := alice.Job(ctx, kj.ID); err == nil && job.State.Terminal() {
			break // outraced the poll; the resume below degrades to a no-op done path
		}
		time.Sleep(2 * time.Millisecond)
	}
	sw.Swap(faultinject.Down)
	srv.Close() // the kill: running jobs stay journaled as running
	figures.ResetRunCache()
	// The restarted daemon is a new process in spirit: it gets a fresh
	// registry (re-registering the same names on the old one panics, by
	// design — that is the duplicate lint).
	cfg.Metrics = telemetry.NewRegistry()
	srv2, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv = srv2
	sw.Swap(srv2)

	var killJob muontrap.Job
	eventually(t, "status after restart", func() error {
		j, err := alice.Job(ctx, kj.ID)
		killJob = j
		return err
	})
	if killJob.State == muontrap.JobInterrupted {
		eventually(t, "resume after restart", func() error {
			_, err := alice.Resume(ctx, kj.ID)
			return err
		})
	} else if killJob.State != muontrap.JobDone {
		t.Fatalf("after restart job %s is %s, want interrupted (or done if it outraced the kill)", kj.ID, killJob.State)
	}
	if term, err := alice.Stream(ctx, kj.ID, nil); err != nil || term.State != muontrap.JobDone {
		t.Fatalf("killed job after resume: state %v, err %v", term.State, err)
	}
	res, err := alice.Result(ctx, kj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalResult(t, res), baseline(t, t.TempDir(), longSweep(1.5)); got != want {
		t.Fatalf("kill/restart/resume corrupted the result:\ngot:  %s\nwant: %s", got, want)
	}

	// ---- the wreckage audit: every job the daemon ever accepted is in
	// a terminal or resumable state, none failed, and the injector
	// really did inject.
	jobs, err := alice.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs {
		if job.State == muontrap.JobFailed {
			t.Fatalf("job %s failed under load: %s", job.ID, job.Error)
		}
		if !job.State.Terminal() {
			t.Fatalf("job %s left non-terminal (%s) after the load run", job.ID, job.State)
		}
	}
	st := inj.Stats()
	if st.Drops == 0 || st.Errors == 0 || st.Delays == 0 {
		t.Fatalf("fault injector was idle (stats %+v); the load test proved nothing", st)
	}
	t.Logf("faults injected over %d requests: %d drops, %d 500s, %d delays", st.Requests, st.Drops, st.Errors, st.Delays)

	// Readiness counters reflect the shed traffic.
	eventually(t, "healthz readiness", func() error {
		resp, err := http.Get(hs.URL + "/v1/healthz")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var h struct {
			Status        string `json:"status"`
			MaxJobs       int    `json:"max_jobs"`
			ShedOverQuota uint64 `json:"shed_over_quota"`
			Tenants       int    `json:"tenants"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			return err
		}
		if h.Status != "ok" || h.MaxJobs != 2 || h.Tenants != 3 {
			return fmt.Errorf("healthz readiness view %+v", h)
		}
		// The restarted daemon's counters restart too; the shed counter
		// was observed non-zero on the first daemon via bob's 429s.
		return nil
	})
}
