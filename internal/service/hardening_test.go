package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/figures"
	"repro/internal/service"
	"repro/muontrap"
	"repro/muontrap/client"
)

// mcfSweep is the suite's inexhaustible job: mcf at a large trip-count
// multiplier simulates for far longer than any test waits, so it always
// dies by cancellation — which also keeps the process-global run memo
// from ever completing (and thus instant-replaying) it. Distinct scales
// keep distinct tests' jobs off each other's cache keys.
func mcfSweep(scale float64) muontrap.Sweep {
	return muontrap.Sweep{
		Workloads: []muontrap.Workload{"mcf"},
		Schemes:   []muontrap.Scheme{"insecure"},
		Scales:    []float64{scale},
	}
}

// apiStatus asserts err is an *client.APIError with the given status and
// code, and returns it.
func apiStatus(t *testing.T, err error, status int, code string) *client.APIError {
	t.Helper()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != status || apiErr.Code != code {
		t.Fatalf("err = %v, want %d %s", err, status, code)
	}
	return apiErr
}

// TestQueuedCancelConsumesNoSlot: DELETE on a job that never left the
// dispatch queue must answer synchronously cancelled — no runner slot
// was consumed, so there is no goroutine to wait out — and must not
// disturb the job occupying the slot.
func TestQueuedCancelConsumesNoSlot(t *testing.T) {
	c, _ := newTestServer(t, service.Config{})
	ctx := context.Background()

	front, err := c.Submit(ctx, mcfSweep(26))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, front.ID, muontrap.JobRunning, 10*time.Second)
	queued, err := c.Submit(ctx, mcfSweep(27))
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != muontrap.JobQueued {
		t.Fatalf("second job born %s, want queued behind the busy slot", queued.State)
	}

	rec, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != muontrap.JobCancelled {
		t.Fatalf("DELETE on a queued job answered %q, want synchronous cancelled", rec.State)
	}
	// The running job never noticed.
	if job, err := c.Job(ctx, front.ID); err != nil || job.State != muontrap.JobRunning {
		t.Fatalf("front job after queued cancel: state %v, err %v", job.State, err)
	}
	if _, err := c.Cancel(ctx, front.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, front.ID, muontrap.JobCancelled, 10*time.Second)
}

// TestConcurrentResumeExactlyOneRequeue: two clients racing POST
// /v1/jobs/{id}/resume on the same resumable job must yield exactly one
// 202 — the loser observes the winner's requeue as a 409 conflict, not a
// double dispatch.
func TestConcurrentResumeExactlyOneRequeue(t *testing.T) {
	c, _ := newTestServer(t, service.Config{})
	ctx := context.Background()

	job, err := c.Submit(ctx, mcfSweep(28))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, job.ID, muontrap.JobRunning, 10*time.Second)
	if _, err := c.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, job.ID, muontrap.JobCancelled, 10*time.Second)

	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Resume(ctx, job.ID)
		}()
	}
	wg.Wait()
	var oks, conflicts int
	for _, err := range errs {
		if err == nil {
			oks++
			continue
		}
		apiStatus(t, err, http.StatusConflict, "conflict")
		conflicts++
	}
	if oks != 1 || conflicts != 1 {
		t.Fatalf("racing resumes: %d accepted, %d conflicted; want exactly 1 and 1 (errs: %v)", oks, conflicts, errs)
	}
	if _, err := c.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, job.ID, muontrap.JobCancelled, 10*time.Second)
}

// TestConcurrentResumeFlagMismatchBoth409: when the daemon restarted
// under identity-affecting flags that differ from the journal entry's,
// resume is refused — and stays refused under racing attempts: both
// racers get the 409, neither requeues, the job stays interrupted.
func TestConcurrentResumeFlagMismatchBoth409(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	srv1, err := service.New(service.Config{Dir: dir, CheckpointEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1)
	c1 := client.New(hs1.URL)
	job, err := c1.Submit(ctx, mcfSweep(29))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c1, job.ID, muontrap.JobRunning, 10*time.Second)
	hs1.Close()
	srv1.Close() // kill: the journal keeps the running state

	srv2, err := service.New(service.Config{Dir: dir, CheckpointEvery: 5000}) // cadence mismatch
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2)
	t.Cleanup(func() { hs2.Close(); srv2.Close() })
	c2 := client.New(hs2.URL)
	if job2, err := c2.Job(ctx, job.ID); err != nil || job2.State != muontrap.JobInterrupted {
		t.Fatalf("after restart: state %v, err %v, want interrupted", job2.State, err)
	}

	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c2.Resume(ctx, job.ID)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		apiStatus(t, err, http.StatusConflict, "conflict")
	}
	if job2, err := c2.Job(ctx, job.ID); err != nil || job2.State != muontrap.JobInterrupted {
		t.Fatalf("after refused resumes: state %v, err %v, want still interrupted", job2.State, err)
	}
}

// TestShutdownDrainTimeoutJournalsInterrupted: Shutdown bounded by an
// already-expired context returns promptly; whichever way the
// drain-vs-deadline race lands, the running job must surface as
// interrupted — and resumable — to the next daemon over the directory.
func TestShutdownDrainTimeoutJournalsInterrupted(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	srv, err := service.New(service.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// The abandoned job keeps writing under dir until it unwinds; cleanups
	// run last-in first-out, so this drain ends before dir is removed.
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv)
	c := client.New(hs.URL)
	job, err := c.Submit(ctx, mcfSweep(30))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, job.ID, muontrap.JobRunning, 10*time.Second)
	hs.Close()

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	abandoned := srv.Shutdown(expired)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("expired-deadline Shutdown took %v, want a prompt return", elapsed)
	}
	if len(abandoned) > 0 && (len(abandoned) != 1 || abandoned[0] != job.ID) {
		t.Fatalf("abandoned = %v, want [%s] (or empty if the drain outraced the deadline)", abandoned, job.ID)
	}

	srv2, err := service.New(service.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if ids := srv2.InterruptedJobs(); len(ids) != 1 || ids[0] != job.ID {
		t.Fatalf("restarted daemon surfaces interrupted jobs %v, want [%s]", ids, job.ID)
	}
}

// plantInterrupted appends a journal record for job id under dir, recorded
// with state "interrupted" (what an expired drain timeout writes), the
// given sweep and cache key, stale progress, and the identity flags older
// daemons journaled beside the record.
func plantInterrupted(t *testing.T, dir, id string, sw muontrap.Sweep, key string) {
	t.Helper()
	entry := map[string]any{
		"version": 1,
		"job": map[string]any{
			"id":        id,
			"state":     "interrupted",
			"sweep":     sw,
			"cache_key": key,
			"done":      7, // stale progress from the dead daemon; must reload as 0
			"total":     1,
		},
		"checkpoint_every": 0, "warmup": 0, "scale": 0, "max_cycles": 0,
	}
	b, err := json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}
	appendJournal(t, dir, append(b, '\n'))
}

// appendJournal appends raw bytes to the job journal under dir.
func appendJournal(t *testing.T, dir string, b []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "service"), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "service", "journal.log"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// TestJournalLoadsExplicitInterruptedEntry: a journal entry recorded
// with state "interrupted" — what an expired drain timeout writes —
// loads as interrupted with progress reset, and resumes normally under
// its journaled cache key, which is the key this daemon computes.
func TestJournalLoadsExplicitInterruptedEntry(t *testing.T) {
	figures.ResetRunCache()
	defer figures.ResetRunCache()
	ctx := context.Background()
	dir := t.TempDir()
	sw := muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"},
		Schemes:   []muontrap.Scheme{""},
		Scales:    []float64{0.061},
	}
	const id = "job-00000000000000ab"
	keyer, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	key := keyer.SweepKey(sw)
	keyer.Close()
	plantInterrupted(t, dir, id, sw, key)

	srv, err := service.New(service.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	c := client.New(hs.URL)

	if ids := srv.InterruptedJobs(); len(ids) != 1 || ids[0] != id {
		t.Fatalf("InterruptedJobs = %v, want the journaled entry", ids)
	}
	job, err := c.Job(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != muontrap.JobInterrupted || job.Done != 0 {
		t.Fatalf("loaded entry: state %s done %d, want interrupted with progress reset", job.State, job.Done)
	}
	if _, err := c.Resume(ctx, id); err != nil {
		t.Fatal(err)
	}
	term := waitState(t, c, id, muontrap.JobDone, 2*time.Minute)
	if term.CacheKey != key {
		t.Fatalf("resumed job rekeyed to %s, want the journaled %s", term.CacheKey, key)
	}
	// The result landed in the store under the journaled key.
	if _, err := c.ResultByKey(ctx, key); err != nil {
		t.Fatalf("result by journaled key: %v", err)
	}
}

// TestJournalRefusesResumeUnderForeignKey: a resumable entry whose cache
// key is not the one this daemon computes for its sweep — recorded by a
// different build, or under other identity flags — loads, but its resume
// is refused with 409: the attempt would file this daemon's result under
// the old key. The message names the identity inputs, the cadence among
// them.
func TestJournalRefusesResumeUnderForeignKey(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const id = "job-00000000000000cd"
	foreign := strings.Repeat("0123456789abcdef", 4) // 64 hex digits
	plantInterrupted(t, dir, id, mcfSweep(36), foreign)

	c, _ := newTestServer(t, service.Config{Dir: dir})
	if job, err := c.Job(ctx, id); err != nil || job.State != muontrap.JobInterrupted || job.CacheKey != foreign {
		t.Fatalf("loaded entry: %+v, err %v; want interrupted under the journaled key", job, err)
	}
	_, err := c.Resume(ctx, id)
	if apiErr := apiStatus(t, err, http.StatusConflict, "conflict"); !strings.Contains(apiErr.Message, "cadence") {
		t.Fatalf("409 message %q does not name the identity inputs", apiErr.Message)
	}
	if job, err := c.Job(ctx, id); err != nil || job.State != muontrap.JobInterrupted {
		t.Fatalf("after the refused resume: state %v, err %v, want still interrupted", job.State, err)
	}
}

// TestSubmitRefusesNonPositiveScale: a declared scale of zero or below is
// a bad request. It used to be admitted, keyed as scales=0 and run at the
// default scale — one experiment under two keys.
func TestSubmitRefusesNonPositiveScale(t *testing.T) {
	c, _ := newTestServer(t, service.Config{})
	for _, scale := range []float64{0, -1} {
		_, err := c.Submit(context.Background(), muontrap.Sweep{
			Workloads: []muontrap.Workload{"hmmer"},
			Schemes:   []muontrap.Scheme{"insecure"},
			Scales:    []float64{scale},
		})
		apiStatus(t, err, http.StatusBadRequest, "bad_request")
	}
}

// TestQueueBoundShedsWith503: submissions beyond MaxQueue are refused
// with 503 + Retry-After, the readiness view counts the shed, and
// capacity freed by a cancel is immediately admittable again.
func TestQueueBoundShedsWith503(t *testing.T) {
	c, hs := newTestServer(t, service.Config{MaxQueue: 1, RetryAfter: 7 * time.Second})
	ctx := context.Background()

	front, err := c.Submit(ctx, mcfSweep(31))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, front.ID, muontrap.JobRunning, 10*time.Second)
	queued, err := c.Submit(ctx, mcfSweep(32))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, mcfSweep(33))
	apiErr := apiStatus(t, err, http.StatusServiceUnavailable, "overloaded")
	if apiErr.RetryAfter != 7*time.Second {
		t.Fatalf("Retry-After %v, want the configured 7s", apiErr.RetryAfter)
	}

	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status           string `json:"status"`
		QueueDepth       int    `json:"queue_depth"`
		Running          int    `json:"running"`
		MaxQueue         int    `json:"max_queue"`
		ShedOverCapacity uint64 `json:"shed_over_capacity"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.QueueDepth != 1 || h.Running != 1 || h.MaxQueue != 1 || h.ShedOverCapacity != 1 {
		t.Fatalf("readiness view %+v, want ok/depth 1/running 1/bound 1/shed 1", h)
	}

	// Cancelling the queued job frees the bound synchronously.
	if rec, err := c.Cancel(ctx, queued.ID); err != nil || rec.State != muontrap.JobCancelled {
		t.Fatalf("queued cancel: state %v, err %v", rec.State, err)
	}
	replacement, err := c.Submit(ctx, mcfSweep(34))
	if err != nil {
		t.Fatalf("submission after freeing the queue bound: %v", err)
	}
	for _, id := range []string{replacement.ID, front.ID} {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
		waitState(t, c, id, muontrap.JobCancelled, 10*time.Second)
	}
}

// TestTenantAuthAndOwnership: with tenants configured every endpoint
// but healthz requires a key, jobs are attributed to their tenant, and
// mutation is owner-only while reads stay cross-tenant.
func TestTenantAuthAndOwnership(t *testing.T) {
	srv, err := service.New(service.Config{Tenants: []service.Tenant{
		{Name: "alice", Key: "sk-alice"},
		{Name: "bob", Key: "sk-bob"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	ctx := context.Background()
	alice := client.New(hs.URL, client.WithAPIKey("sk-alice"))
	bob := client.New(hs.URL, client.WithAPIKey("sk-bob"))

	_, err = client.New(hs.URL).Jobs(ctx)
	apiStatus(t, err, http.StatusUnauthorized, "unauthorized")
	_, err = client.New(hs.URL, client.WithAPIKey("sk-mallory")).Jobs(ctx)
	apiStatus(t, err, http.StatusUnauthorized, "unauthorized")
	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz must not require auth: %v %v", resp, err)
	}
	resp.Body.Close()

	job, err := alice.Submit(ctx, mcfSweep(35))
	if err != nil {
		t.Fatal(err)
	}
	if job.Tenant != "alice" {
		t.Fatalf("job attributed to %q, want alice", job.Tenant)
	}
	// bob can see but not touch.
	if _, err := bob.Job(ctx, job.ID); err != nil {
		t.Fatalf("cross-tenant read should be allowed: %v", err)
	}
	_, err = bob.Cancel(ctx, job.ID)
	apiStatus(t, err, http.StatusForbidden, "forbidden")
	if _, err := alice.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, alice, job.ID, muontrap.JobCancelled, 10*time.Second)
}

// heldChain is a daemon's mid-run checkpoint store that holds its first
// saves, each after it has landed, until the test frees it. A test that
// acts on the daemon while a job sits at a held save acts after that
// job's checkpoint exists, however fast the simulator finishes a cell.
type heldChain struct {
	checkpoint.ChainStore
	holds     atomic.Int32  // saves still to hold
	saved     chan struct{} // one value per held save, once it has landed
	release   chan struct{} // one value lets one held save return
	closed    chan struct{} // closed by close: every held save returns
	closeOnce sync.Once
}

// newHeldChain stores chains under dir, as a daemon's default store
// would, and holds the first holds saves.
func newHeldChain(t *testing.T, dir string, holds int32) *heldChain {
	t.Helper()
	st, err := checkpoint.NewStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	h := &heldChain{ChainStore: st, saved: make(chan struct{}),
		release: make(chan struct{}), closed: make(chan struct{})}
	h.holds.Store(holds)
	return h
}

func (h *heldChain) Save(key string, g uint64, s *checkpoint.Snapshot) error {
	err := h.ChainStore.Save(key, g, s)
	if h.holds.Add(-1) >= 0 {
		select {
		case h.saved <- struct{}{}:
			select {
			case <-h.release:
			case <-h.closed:
			}
		case <-h.closed:
		}
	}
	return err
}

// next waits until a held save has landed; the saver stays parked in it
// until free.
func (h *heldChain) next(t *testing.T) {
	t.Helper()
	select {
	case <-h.saved:
	case <-time.After(2 * time.Minute):
		t.Fatal("no mid-run checkpoint was saved")
	}
}

// free lets the parked save return.
func (h *heldChain) free() { h.release <- struct{}{} }

// close lets every held save return, so a failed test can shut its daemon
// down; register it after the daemon's own cleanup.
func (h *heldChain) close() { h.closeOnce.Do(func() { close(h.closed) }) }

// TestInteractivePreemptsBulkByteIdentical is the in-process preemption
// gate: with the single runner slot busy on a bulk sweep, an
// interactive submission drives the bulk job back to queued (losslessly,
// via its checkpoint), completes first, and the preempted sweep still
// converges to a result byte-identical to an unpreempted run at the
// same cadence. The bulk job is held at its first persisted checkpoint
// while the interactive job is submitted, and the interactive job at its
// own first one while the bulk job's state is read, so neither step
// depends on how long a cell takes.
func TestInteractivePreemptsBulkByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	figures.ResetRunCache()
	defer figures.ResetRunCache()
	ctx := context.Background()

	bulkSweep := muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"},
		Schemes:   []muontrap.Scheme{"muontrap"},
		Scales:    []float64{0.5},
	}
	interactive := muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"},
		Schemes:   []muontrap.Scheme{""},
		Scales:    []float64{0.064},
	}

	// Unpreempted reference at the same cadence.
	cRef, _ := newTestServer(t, service.Config{Dir: t.TempDir(), CheckpointEvery: 2000})
	ref, err := cRef.Sweep(ctx, bulkSweep)
	if err != nil {
		t.Fatal(err)
	}

	figures.ResetRunCache()
	dir := t.TempDir()
	hold := newHeldChain(t, dir, 2)
	c, _ := newTestServer(t, service.Config{Dir: dir, CheckpointEvery: 2000, SnapStore: hold})
	t.Cleanup(hold.close)
	bulk, err := c.Submit(ctx, bulkSweep)
	if err != nil {
		t.Fatal(err)
	}
	hold.next(t) // the bulk job's first checkpoint
	inter, err := c.Submit(ctx, interactive, client.WithPriority(muontrap.PriorityInteractive))
	if err != nil {
		t.Fatal(err)
	}
	hold.free()

	// The preemption signature: while the interactive job runs, the bulk
	// job is back in the queue.
	hold.next(t) // the interactive job's first checkpoint
	job, err := c.Job(ctx, bulk.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != muontrap.JobQueued {
		t.Fatalf("bulk job is %s while the interactive job runs, want queued", job.State)
	}
	hold.free()

	waitState(t, c, inter.ID, muontrap.JobDone, 2*time.Minute)
	out, err := c.Result(ctx, inter.ID)
	if err != nil {
		t.Fatalf("interactive sweep under preemption: %v", err)
	}
	if len(out.Runs) != 1 {
		t.Fatalf("interactive sweep returned %d runs, want 1", len(out.Runs))
	}

	term := waitState(t, c, bulk.ID, muontrap.JobDone, 2*time.Minute)
	res, err := c.Result(ctx, term.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshal(t, res), marshal(t, ref); string(got) != string(want) {
		t.Fatalf("preempted sweep result differs from unpreempted reference:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestStreamLastEventIDResumesAfterCursor pins the SSE resumption wire
// contract: progress frames carry "id:" lines, and a reconnect
// presenting Last-Event-ID receives only frames after that cursor —
// both from the live ring and from the synthesized replay of a
// born-done (result-store hit) job, which has no ring at all.
func TestStreamLastEventIDResumesAfterCursor(t *testing.T) {
	figures.ResetRunCache()
	defer figures.ResetRunCache()
	ctx := context.Background()
	c, hs := newTestServer(t, service.Config{Dir: t.TempDir()})
	sw := muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"},
		Schemes:   []muontrap.Scheme{"", "muontrap"}, // two cells → frame ids 1 and 2
		Scales:    []float64{0.062},
	}
	if _, err := c.Sweep(ctx, sw); err != nil {
		t.Fatal(err)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	id := jobs[len(jobs)-1].ID

	read := func(lastEventID string) (progressIDs []string, terminal string) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/v1/jobs/"+id+"/stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var frameID, event string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id:"):
				frameID = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
			case strings.HasPrefix(line, "event:"):
				event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
			case line == "":
				if event == "progress" {
					progressIDs = append(progressIDs, frameID)
				} else if muontrap.JobState(event).Terminal() {
					return progressIDs, event
				}
				frameID, event = "", ""
			}
		}
		t.Fatal("stream ended without a terminal event")
		return
	}

	// Full replay from the retained ring.
	ids, terminal := read("")
	if len(ids) != 2 || ids[0] != "1" || ids[1] != "2" || terminal != "done" {
		t.Fatalf("fresh stream: progress ids %v, terminal %q; want [1 2] and done", ids, terminal)
	}
	// Resuming after frame 1 replays only frame 2.
	ids, terminal = read("1")
	if len(ids) != 1 || ids[0] != "2" || terminal != "done" {
		t.Fatalf("resumed stream: progress ids %v, terminal %q; want [2] and done", ids, terminal)
	}

	// A born-done resubmission is answered from the result store with no
	// ring frames; its synthesized replay honors the same cursor with
	// positional ids.
	born, err := c.Submit(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	if born.State != muontrap.JobDone || born.ID == id {
		t.Fatalf("resubmission: state %s id %s, want a fresh born-done job", born.State, born.ID)
	}
	id = born.ID
	ids, terminal = read("1")
	if len(ids) != 1 || ids[0] != "2" || terminal != "done" {
		t.Fatalf("synthesized resumed stream: progress ids %v, terminal %q; want [2] and done", ids, terminal)
	}
}
