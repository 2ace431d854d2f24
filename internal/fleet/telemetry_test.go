package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/figures"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/muontrap"
)

// scrapeCoordinator fetches the coordinator's /metrics exposition.
func scrapeCoordinator(t *testing.T, baseURL string) string {
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

// metricValue extracts one un-labelled (or exactly-labelled) sample
// value from an exposition body; -1 when absent.
func metricValue(body, series string) float64 {
	for _, l := range strings.Split(body, "\n") {
		var v float64
		if _, err := fmt.Sscanf(l, series+" %g", &v); err == nil && strings.HasPrefix(l, series+" ") {
			return v
		}
	}
	return -1
}

// TestFleetChaosMetricsScrape is the observability half of the chaos
// gate: a worker is killed mid-cell while /metrics is scraped live, and
// after the sweep completes the exposition must show the dead worker,
// the migration (re-dispatch), per-scheme sim throughput (the workers
// run in-process, so the process-global sim profiler sees their runs),
// attempt latency histograms, and a lifecycle trace carrying the
// worker_dead and requeue records. /v1/healthz must agree with the
// worker gauges — both read the same Stats() snapshot.
func TestFleetChaosMetricsScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer figures.ResetRunCache()
	figures.ResetRunCache()

	reg := telemetry.NewRegistry()
	telemetry.EnableSimProfiling(reg)
	defer telemetry.DisableSimProfiling()
	tracer, err := telemetry.NewTracer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tracer.Close()

	f := newTestFleet(t, 2, fleet.Config{Config: service.Config{Metrics: reg, Tracer: tracer}})
	sw := muontrap.Sweep{
		Workloads: []muontrap.Workload{"swaptions"},
		Schemes:   []muontrap.Scheme{"insecure", "muontrap", "stt-spectre"},
		Scales:    []float64{0.02},
	}
	var job muontrap.Job
	// Kill a worker once its first mid-run checkpoint has shipped, exactly
	// as the headline chaos test does, scraping live while the sweep is in
	// flight.
	f.killAtFirstCheckpoint(f.workers[0], func() string {
		var err error
		if job, err = f.client.Submit(context.Background(), sw); err != nil {
			t.Fatal(err)
		}
		live := scrapeCoordinator(t, f.hs.URL)
		if !strings.Contains(live, "muontrap_fleet_workers_alive 2") {
			t.Errorf("live scrape shows wrong alive count:\n%s", grepFor(live, "workers_alive"))
		}
		return job.ID
	})

	final, err := f.client.Stream(context.Background(), job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != muontrap.JobDone {
		t.Fatalf("fleet job ended %s (%s), want done", final.State, final.Error)
	}

	body := scrapeCoordinator(t, f.hs.URL)
	for _, want := range []string{
		"muontrap_fleet_workers_alive 1",
		"muontrap_fleet_workers_dead 1",
		"muontrap_fleet_workers_dead_total 1",
		"muontrap_fleet_cells_pending 0",
		`muontrap_sim_insts_per_second_count{scheme="insecure"} `,
		`muontrap_sim_insts_per_second_count{scheme="muontrap"} `,
		`muontrap_fleet_attempt_seconds_count{outcome="ok"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("post-chaos scrape missing %q:\n%s", want, grepFor(body, "muontrap_fleet"))
		}
	}
	if v := metricValue(body, "muontrap_fleet_migrations_total"); v < 1 {
		t.Errorf("migrations_total = %g, want >= 1", v)
	}
	if v := metricValue(body, "muontrap_fleet_dispatches_total"); v < 3 {
		t.Errorf("dispatches_total = %g, want >= 3 (one per cell)", v)
	}

	// /v1/healthz sources the same Stats snapshot the gauges read.
	resp, err := http.Get(f.hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Status         string `json:"status"`
		Workers        int    `json:"workers"`
		SuspectWorkers int    `json:"suspect_workers"`
		DeadWorkersNow int    `json:"dead_workers_now"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Workers != 1 || hz.DeadWorkersNow != 1 {
		t.Errorf("healthz = %+v, want status ok, 1 alive, 1 dead", hz)
	}

	// The trace carries the chaos narrative.
	events := map[string]bool{}
	for _, s := range tracer.Recent(8192) {
		events[s.Event] = true
	}
	for _, want := range []string{"submit", "queue", "dispatch", "worker_dead", "requeue", "merge", "done"} {
		if !events[want] {
			t.Errorf("trace missing %q event (got %v)", want, events)
		}
	}
}

func grepFor(body, substr string) string {
	var out []string
	for _, l := range strings.Split(body, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
