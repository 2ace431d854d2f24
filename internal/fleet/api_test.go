package fleet_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/muontrap"
	"repro/muontrap/client"
)

// rawCall issues one raw HTTP request and returns the status and body.
func rawCall(t *testing.T, method, url, body string, header ...string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading response: %v", method, url, err)
	}
	return resp.StatusCode, b
}

var (
	jobIDRe     = regexp.MustCompile(`job-[0-9a-f]{16}`)
	timestampRe = regexp.MustCompile(`\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z`)
	admittedRe  = regexp.MustCompile(`"state": ?"(queued|running)"`)
)

// normalise strips what legitimately differs between two servers given
// the same requests: random job ids and wall-clock stamps.
func normalise(b []byte) string {
	s := jobIDRe.ReplaceAllString(string(b), "job-N")
	return strings.TrimSpace(timestampRe.ReplaceAllString(s, "T"))
}

// wireSession drives one scripted client session against the server at
// base and returns its transcript: one line per response — status and
// normalised body — and one per SSE frame. Run against a lone daemon and
// against a coordinator, the two transcripts must be equal: both serve
// the /v1 API from the same job plane, and this is the test that would
// have caught them drifting apart when they were two implementations.
//
// The two-cell sweep's 202 must describe the job before any cell ran on
// both servers, so admitted is called once that 202 is read: a daemon
// whose backend holds the sweep until then cannot have finished a cell by
// the time it answers.
func wireSession(t *testing.T, base string, admitted func()) []string {
	t.Helper()
	var out []string
	say := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	do := func(method, path, body string) []byte {
		t.Helper()
		status, b := rawCall(t, method, base+path, body)
		say("%s %s → %d %s", method, jobIDRe.ReplaceAllString(path, "job-N"), status, normalise(b))
		return b
	}
	// stream records every frame of one SSE connection. The first frame
	// is a snapshot of whatever state the connection happened to find —
	// running with none or some cells done — so for a job in flight only
	// its event name is comparable.
	stream := func(id, lastEventID string, inFlight bool) {
		t.Helper()
		req, _ := http.NewRequest("GET", base+"/v1/jobs/"+id+"/stream", nil)
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		say("GET stream (Last-Event-ID %q) → %d %s", lastEventID, resp.StatusCode, resp.Header.Get("Content-Type"))
		var frame []string
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for n := 0; sc.Scan(); {
			if line := sc.Text(); line != "" {
				frame = append(frame, line)
				continue
			}
			if n == 0 && inFlight {
				frame = frame[:1] // "event: job"
			}
			say("  %s", normalise([]byte(strings.Join(frame, " | "))))
			frame = frame[:0]
			n++
		}
	}

	// Submission validation: every error family, each with its wire code.
	do("POST", "/v1/jobs", `{not json`)
	do("POST", "/v1/jobs", `{"sweep":{"workloads":["nope"],"schemes":["muontrap"]}}`)
	do("POST", "/v1/jobs", `{"sweep":{"workloads":["swaptions"],"schemes":["nope"]}}`)
	do("POST", "/v1/jobs", `{"sweep":{"attacks":["nope"],"schemes":["muontrap"]}}`)
	do("POST", "/v1/jobs", `{"sweep":{"workloads":["swaptions"],"schemes":["muontrap"]},"priority":"urgent"}`)
	do("POST", "/v1/jobs", `{"sweep":{"workloads":[],"schemes":["muontrap"]}}`)
	do("POST", "/v1/jobs", `{"sweep":{"workloads":["swaptions"]}}`)
	do("POST", "/v1/jobs", `{"sweep":{"workloads":["swaptions"],"schemes":["muontrap"]},"bogus":1}`)

	// Unknown resources.
	do("GET", "/v1/jobs/job-bogus", "")
	do("GET", "/v1/jobs/job-bogus/result", "")
	do("GET", "/v1/jobs/job-bogus/stream", "")
	do("DELETE", "/v1/jobs/job-bogus", "")
	do("POST", "/v1/jobs/job-bogus/resume", "")
	do("GET", "/v1/results/"+strings.Repeat("0", 64), "")

	// A valid two-cell sweep, followed live to its terminal event. The
	// 202 may catch the job queued or already running.
	const submit = `{"sweep":{"workloads":["swaptions"],"schemes":["insecure","muontrap"],"scales":[0.02]}}`
	status, b := rawCall(t, "POST", base+"/v1/jobs", submit)
	say("POST /v1/jobs → %d %s", status, admittedRe.ReplaceAllString(normalise(b), `"state": "admitted"`))
	admitted()
	var job muontrap.Job
	if err := json.Unmarshal(b, &job); err != nil || job.ID == "" {
		t.Fatalf("submit answered %d %s", status, b)
	}
	stream(job.ID, "", true)
	stream(job.ID, "1", false) // reconnect: resumes after frame 1

	do("GET", "/v1/jobs/"+job.ID, "")
	do("GET", "/v1/jobs", "")
	do("GET", "/v1/jobs/"+job.ID+"/result", "")
	do("GET", "/v1/results/"+job.CacheKey, "")
	do("GET", "/v1/results/not-a-key", "")
	do("GET", "/v1/results/..%2F..%2Fservice%2Fjobs%2F"+job.ID, "")
	do("DELETE", "/v1/jobs/"+job.ID, "")         // done: 409
	do("POST", "/v1/jobs/"+job.ID+"/resume", "") // done: 409

	// The identical resubmission is born done (200), and its stream is
	// synthesized from the stored result.
	again := do("POST", "/v1/jobs", submit)
	var job2 muontrap.Job
	if err := json.Unmarshal(again, &job2); err != nil || job2.State != muontrap.JobDone {
		t.Fatalf("resubmission not born done: %s", again)
	}
	stream(job2.ID, "", false)
	do("GET", "/v1/jobs", "")
	do("GET", "/v1/catalog", "")
	return out
}

// gatedBackend runs a daemon's attempts as its default in-process backend
// does with one worker, after holding each at a gate until the test opens
// it.
type gatedBackend struct {
	dir  string
	open chan struct{}
}

func (g gatedBackend) Run(ctx context.Context, job muontrap.Job, resume bool, progress func(muontrap.Progress)) (*muontrap.SweepResult, error) {
	select {
	case <-g.open:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return muontrap.NewRunner(
		muontrap.WithWorkers(1),
		muontrap.WithCacheDir(g.dir),
		muontrap.WithCheckpointEvery(cadence),
		muontrap.WithResume(resume),
		muontrap.WithProgress(progress),
	).Sweep(ctx, job.Sweep)
}

// TestWireParityDaemonAndCoordinator runs the scripted session against a
// lone daemon and against a coordinator with one worker — status codes,
// error codes, SSE event names and id sequences, and bodies must be
// equal — and then walks what only a coordinator has: the control plane,
// the health payload, and the job state machine with no worker to run on.
func TestWireParityDaemonAndCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer figures.ResetRunCache()
	figures.ResetRunCache()

	dir := t.TempDir()
	gate := gatedBackend{dir: dir, open: make(chan struct{})}
	srv, err := service.New(service.Config{Dir: dir, CheckpointEvery: cadence, Backend: gate, MaxJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	daemon := wireSession(t, hs.URL, func() { close(gate.open) })
	hs.Close()
	srv.Close()
	figures.ResetRunCache()

	f := newTestFleet(t, 1, fleet.Config{})
	coordinator := wireSession(t, f.hs.URL, func() {})
	for i := 0; i < len(daemon) || i < len(coordinator); i++ {
		var d, c string
		if i < len(daemon) {
			d = daemon[i]
		}
		if i < len(coordinator) {
			c = coordinator[i]
		}
		if d != c {
			t.Fatalf("transcripts diverge at line %d:\ndaemon:      %s\ncoordinator: %s", i, d, c)
		}
	}
	if len(daemon) < 40 {
		t.Fatalf("session transcript has only %d lines:\n%s", len(daemon), strings.Join(daemon, "\n"))
	}
	if n := f.workers[0].agent.Reregistrations(); n != 0 {
		t.Fatalf("healthy agent re-registered %d times", n)
	}

	// --- coordinator only, on a fleet with NO worker so that every
	// pre-completion transition is race-free -------------------------
	f = newTestFleet(t, 0, fleet.Config{})
	wantError := func(method, path, body string, status int, code string) {
		t.Helper()
		got, b := rawCall(t, method, f.hs.URL+path, body)
		var e struct{ Code, Error string }
		if json.Unmarshal(b, &e); got != status || e.Code != code || e.Error == "" {
			t.Fatalf("%s %s: %d %s, want %d with code %q", method, path, got, b, status, code)
		}
	}
	wantError("POST", "/fleet/v1/register", `{"name":3}`, http.StatusBadRequest, "bad_request")
	wantError("POST", "/fleet/v1/heartbeat", `{`, http.StatusBadRequest, "bad_request")
	wantError("POST", "/fleet/v1/heartbeat", `{"worker_id":"w-bogus"}`, http.StatusNotFound, "unknown_worker")

	// Health is one flat object: the fleet's counters beside the plane's.
	_, b := rawCall(t, "GET", f.hs.URL+"/v1/healthz", "")
	var health map[string]any
	if err := json.Unmarshal(b, &health); err != nil || health["status"] != "ok" {
		t.Fatalf("healthz: %s", b)
	}
	for _, key := range []string{
		"workers", "suspect_workers", "dead_workers_now", "dead_workers", "cells_pending",
		"dispatched", "migrations", "steals", "duplicates",
		"jobs", "queue_depth", "running", "max_jobs", "max_queue",
		"shed_over_quota", "shed_over_capacity", "tenants",
	} {
		if _, ok := health[key].(float64); !ok {
			t.Errorf("healthz lacks %q: %s", key, b)
		}
	}

	// A scale-less sweep resolves against the coordinator's default scale
	// for its cache key. Admitted, it is running — its Run is waiting for
	// worker capacity — and it ends the way a daemon's running job does:
	// DELETE answers 202 and the stream delivers the cancelled state.
	job1, err := f.client.Submit(context.Background(), muontrap.Sweep{
		Workloads: []muontrap.Workload{"swaptions"},
		Schemes:   []muontrap.Scheme{"muontrap"},
	})
	if err != nil || job1.Total != 1 {
		t.Fatalf("scale-less submit: %+v, err %v", job1, err)
	}
	for deadline := time.Now().Add(10 * time.Second); f.co.Stats().CellsPending != 1; {
		if time.Now().After(deadline) {
			t.Fatal("admitted sweep never reached the dispatch pool")
		}
		time.Sleep(time.Millisecond)
	}
	if j, err := f.client.Job(context.Background(), job1.ID); err != nil || j.State != muontrap.JobRunning {
		t.Fatalf("admitted job on a worker-less fleet is %s (err %v), want running", j.State, err)
	}
	wantError("GET", "/v1/jobs/"+job1.ID+"/result", "", http.StatusConflict, "conflict") // exists, not done
	cancelAndWait := func() {
		t.Helper()
		if _, err := f.client.Cancel(context.Background(), job1.ID); err != nil {
			t.Fatalf("cancel: %v", err)
		}
		final, err := f.client.Stream(context.Background(), job1.ID, nil)
		if err != nil || final.State != muontrap.JobCancelled {
			t.Fatalf("cancelled job's stream ended %s (err %v)", final.State, err)
		}
	}
	cancelAndWait()
	if got, err := f.client.Cancel(context.Background(), job1.ID); err != nil || got.State != muontrap.JobCancelled {
		t.Fatalf("cancel is not idempotent: %+v, err %v", got, err)
	}
	if pending := f.co.Stats().CellsPending; pending != 0 {
		t.Fatalf("cancelled job still has %d cells in the dispatch pool", pending)
	}
	// Resume re-admits it; with no workers it just waits again, so a
	// second cancel exercises the same path on a resumed attempt.
	if got, err := f.client.Resume(context.Background(), job1.ID); err != nil || got.State.Terminal() {
		t.Fatalf("resume: %+v, err %v", got, err)
	}
	cancelAndWait()

	// A real single-cell job, completed once a worker joins.
	job2, err := f.client.Submit(context.Background(), muontrap.Sweep{
		Workloads: []muontrap.Workload{"swaptions"},
		Schemes:   []muontrap.Scheme{"muontrap"},
		Scales:    []float64{0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.addWorker()
	f.waitWorkers(1)
	if final, err := f.client.Stream(context.Background(), job2.ID, nil); err != nil || final.State != muontrap.JobDone {
		t.Fatalf("job ended %s (%s), err %v; want done", final.State, final.Error, err)
	}
	jobs, err := f.client.Jobs(context.Background())
	if err != nil || len(jobs) != 2 || jobs[0].ID != job1.ID || jobs[1].ID != job2.ID {
		t.Fatalf("job list wrong: %+v, err %v", jobs, err)
	}
	alive := 0
	for _, w := range f.co.Workers() {
		if w.Alive {
			alive++
		}
	}
	if alive != 1 {
		t.Fatalf("%d workers alive, want 1", alive)
	}
}

// TestSubmitBodyBound: both planes refuse an oversized POST /v1/jobs
// with the JSON error envelope instead of buffering it, and keep
// serving.
func TestSubmitBodyBound(t *testing.T) {
	srv, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	f := newTestFleet(t, 0, fleet.Config{})
	huge := `{"sweep":{"workloads":["` + strings.Repeat("a", 2<<20) + `"],"schemes":["muontrap"]}}`
	for name, base := range map[string]string{"daemon": hs.URL, "coordinator": f.hs.URL} {
		status, b := rawCall(t, "POST", base+"/v1/jobs", huge)
		var e struct{ Code, Error string }
		if err := json.Unmarshal(b, &e); err != nil || status != http.StatusBadRequest || e.Code != "bad_request" ||
			!strings.Contains(e.Error, "too large") {
			t.Errorf("%s: 2 MiB submit answered %d %.200s, want 400 bad_request naming the bound", name, status, b)
		}
		job, err := client.New(base).Submit(context.Background(), muontrap.Sweep{
			Workloads: []muontrap.Workload{"swaptions"},
			Schemes:   []muontrap.Scheme{"muontrap"},
			Scales:    []float64{0.02},
		})
		if err != nil || job.ID == "" {
			t.Errorf("%s: valid submit after the refused one: %+v, err %v", name, job, err)
		}
	}
}

// TestCoordinatorTenants: with tenants configured the coordinator's /v1
// API needs a key and enforces job ownership exactly as a daemon's does,
// while the routes workers and probes speak stay open.
func TestCoordinatorTenants(t *testing.T) {
	f := newTestFleet(t, 0, fleet.Config{Config: service.Config{Tenants: []service.Tenant{
		{Name: "alice", Key: "sk-alice"},
		{Name: "bob", Key: "sk-bob"},
	}}})
	const submit = `{"sweep":{"workloads":["swaptions"],"schemes":["muontrap"],"scales":[0.02]}}`
	if status, b := rawCall(t, "POST", f.hs.URL+"/v1/jobs", submit); status != http.StatusUnauthorized {
		t.Fatalf("keyless submit answered %d %s, want 401", status, b)
	}
	status, b := rawCall(t, "POST", f.hs.URL+"/v1/jobs", submit, "Authorization", "Bearer sk-alice")
	var job muontrap.Job
	if err := json.Unmarshal(b, &job); err != nil || status != http.StatusAccepted || job.Tenant != "alice" {
		t.Fatalf("alice's submit answered %d %s, want 202 owned by alice", status, b)
	}
	if status, b := rawCall(t, "DELETE", f.hs.URL+"/v1/jobs/"+job.ID, "", "X-API-Key", "sk-bob"); status != http.StatusForbidden {
		t.Fatalf("bob cancelling alice's job answered %d %s, want 403", status, b)
	}
	if status, _ := rawCall(t, "GET", f.hs.URL+"/v1/healthz", ""); status != http.StatusOK {
		t.Fatalf("keyless healthz answered %d", status)
	}
	f.addWorker() // registers and heartbeats without a key
	f.waitWorkers(1)
	if final, err := client.New(f.hs.URL, client.WithAPIKey("sk-alice")).Stream(context.Background(), job.ID, nil); err != nil || final.State != muontrap.JobDone {
		t.Fatalf("alice's job ended %s, err %v; want done on the keyless worker", final.State, err)
	}
}
