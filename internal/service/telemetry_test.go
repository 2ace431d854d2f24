package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/muontrap"
	"repro/muontrap/client"
)

// scrapeMetrics fetches and returns the /metrics exposition.
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// readTraceEvents returns the event names recorded for one job, in file
// order, from the tracer's JSONL.
func readTraceEvents(t *testing.T, dir, jobID string) []string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s telemetry.Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if s.Job == jobID {
			events = append(events, s.Event)
		}
	}
	return events
}

// assertSubsequence checks that want appears as an ordered (not
// necessarily contiguous) subsequence of got.
func assertSubsequence(t *testing.T, got, want []string) {
	t.Helper()
	i := 0
	for _, e := range got {
		if i < len(want) && e == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("span chain %v does not contain subsequence %v", got, want)
	}
}

// TestMetricsScrapeAndSpanChain is the basic observability e2e: with
// Metrics and a Tracer configured, a job run through the full HTTP path
// shows up in the /metrics exposition and leaves its complete
// submit→queue→dispatch→done chain in the JSONL trace.
func TestMetricsScrapeAndSpanChain(t *testing.T) {
	figures.ResetRunCache()
	defer figures.ResetRunCache()
	reg := telemetry.NewRegistry()
	traceDir := t.TempDir()
	tracer, err := telemetry.NewTracer(traceDir)
	if err != nil {
		t.Fatal(err)
	}
	defer tracer.Close()
	c, hs := newTestServer(t, service.Config{Metrics: reg, Tracer: tracer})

	job, err := c.Submit(context.Background(), muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"},
		Schemes:   []muontrap.Scheme{""},
		Scales:    []float64{0.061},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, job.ID, muontrap.JobDone, 2*time.Minute)

	body := scrapeMetrics(t, hs.URL)
	for _, want := range []string{
		"muontrap_service_jobs_submitted_total 1",
		`muontrap_service_job_seconds_count{tenant=""} 1`,
		"muontrap_service_queue_depth 0",
		"muontrap_service_running_jobs 0",
		"muontrap_service_jobs_known 1",
		`muontrap_service_shed_total{reason="quota"} 0`,
		"muontrap_service_sse_subscribers 0",
		"muontrap_service_trace_drops_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	assertSubsequence(t, readTraceEvents(t, traceDir, job.ID),
		[]string{"submit", "queue", "dispatch", "done"})
}

// TestPreemptResumeSpanChain pins the acceptance-level trace contract:
// a bulk job preempted by interactive work and later resumed leaves the
// full submit→queue→dispatch→preempt→requeue→dispatch→done chain in
// the JSONL trace, and the preemption shows in the counters.
func TestPreemptResumeSpanChain(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	figures.ResetRunCache()
	defer figures.ResetRunCache()
	ctx := context.Background()

	reg := telemetry.NewRegistry()
	traceDir := t.TempDir()
	tracer, err := telemetry.NewTracer(traceDir)
	if err != nil {
		t.Fatal(err)
	}
	defer tracer.Close()
	// The interactive job is submitted while the bulk job sits at its
	// first persisted checkpoint, so the preemption lands after a
	// checkpoint exists, however fast the cell is.
	dir := t.TempDir()
	hold := newHeldChain(t, dir, 1)
	c, hs := newTestServer(t, service.Config{
		Dir: dir, CheckpointEvery: 2000, SnapStore: hold,
		Metrics: reg, Tracer: tracer,
	})
	t.Cleanup(hold.close)

	bulk, err := c.Submit(ctx, muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"},
		Schemes:   []muontrap.Scheme{"muontrap"},
		Scales:    []float64{0.52},
	})
	if err != nil {
		t.Fatal(err)
	}
	hold.next(t)
	inter, err := c.Submit(ctx, muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"},
		Schemes:   []muontrap.Scheme{""},
		Scales:    []float64{0.063},
	}, client.WithPriority(muontrap.PriorityInteractive))
	if err != nil {
		t.Fatalf("interactive sweep: %v", err)
	}
	hold.free()
	waitState(t, c, inter.ID, muontrap.JobDone, 2*time.Minute)
	waitState(t, c, bulk.ID, muontrap.JobDone, 2*time.Minute)

	assertSubsequence(t, readTraceEvents(t, traceDir, bulk.ID),
		[]string{"submit", "queue", "dispatch", "preempt", "requeue", "dispatch", "done"})

	body := scrapeMetrics(t, hs.URL)
	if !strings.Contains(body, "muontrap_service_preemptions_total 1") {
		t.Errorf("scrape missing preemption counter:\n%s",
			grepLines(body, "muontrap_service_preemptions"))
	}
	if !strings.Contains(body, `muontrap_service_job_seconds_count{tenant=""} 2`) {
		t.Errorf("scrape missing job latency observations:\n%s",
			grepLines(body, "muontrap_service_job_seconds_count"))
	}
}

func grepLines(body, substr string) string {
	var out []string
	for _, l := range strings.Split(body, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestTenantHotReload is the SIGHUP regression suite: a key rotation
// takes effect without restarting (old key 401s, new key works, job
// ownership survives), a failed reload keeps the old table fully in
// force, and reloading an authenticated daemon down to an empty table
// is refused. The reload counters record each outcome.
func TestTenantHotReload(t *testing.T) {
	figures.ResetRunCache()
	defer figures.ResetRunCache()
	reg := telemetry.NewRegistry()
	srv, err := service.New(service.Config{
		Metrics: reg,
		Tenants: []service.Tenant{{Name: "alice", Key: "sk-old"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	ctx := context.Background()

	oldKey := client.New(hs.URL, client.WithAPIKey("sk-old"))
	job, err := oldKey.Submit(ctx, mcfSweep(61))
	if err != nil {
		t.Fatal(err)
	}

	// Failed reload: duplicate key. The old table stays in force.
	err = srv.ReloadTenants([]service.Tenant{
		{Name: "a", Key: "sk-dup"}, {Name: "b", Key: "sk-dup"},
	})
	if err == nil {
		t.Fatal("duplicate-key reload should fail")
	}
	if _, err := oldKey.Job(ctx, job.ID); err != nil {
		t.Fatalf("old key must survive a failed reload: %v", err)
	}

	// Unreadable file: same guarantee through the SIGHUP entry point.
	if err := srv.ReloadTenantsFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing-file reload should fail")
	}
	if _, err := oldKey.Job(ctx, job.ID); err != nil {
		t.Fatalf("old key must survive an unreadable-file reload: %v", err)
	}

	// Authenticated → open is refused, not silently applied.
	if err := srv.ReloadTenants(nil); err == nil {
		t.Fatal("reload to an empty table should be refused")
	}

	// Successful rotation: the file path is the SIGHUP path end-to-end.
	tf := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(tf, []byte(`[{"name":"alice","key":"sk-new"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.ReloadTenantsFile(tf); err != nil {
		t.Fatal(err)
	}
	if _, err := oldKey.Job(ctx, job.ID); err == nil {
		t.Fatal("rotated-out key still authenticates")
	}
	newKey := client.New(hs.URL, client.WithAPIKey("sk-new"))
	if _, err := newKey.Job(ctx, job.ID); err != nil {
		t.Fatalf("rotated-in key rejected: %v", err)
	}
	// Ownership followed the rebind: alice (under her new key) can still
	// cancel the job she submitted before the rotation.
	if _, err := newKey.Cancel(ctx, job.ID); err != nil {
		t.Fatalf("post-rotation owner cannot cancel own job: %v", err)
	}
	waitState(t, newKey, job.ID, muontrap.JobCancelled, 10*time.Second)

	body := scrapeMetrics(t, hs.URL)
	for _, want := range []string{
		`muontrap_service_tenant_reloads_total{result="failure"} 3`,
		`muontrap_service_tenant_reloads_total{result="success"} 1`,
		"muontrap_service_tenants 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q:\n%s", want,
				grepLines(body, "muontrap_service_tenant"))
		}
	}
}
