package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/fleet"
	"repro/muontrap"
)

// wedgedWorker is a fake worker daemon that accepts every submission
// and then runs it forever: the canonical straggler. It answers the
// exact wire shapes a real daemon does, so the coordinator cannot tell
// it from a healthy-but-glacial machine.
func wedgedWorker(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	writeJob := func(w http.ResponseWriter, status int, j muontrap.Job) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write(mustJSON(t, j))
	}
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJob(w, http.StatusAccepted, muontrap.Job{ID: "job-wedged", State: muontrap.JobRunning, Total: 1})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		writeJob(w, http.StatusOK, muontrap.Job{ID: r.PathValue("id"), State: muontrap.JobRunning, Total: 1})
	})
	// The stream of a job that never finishes: the snapshot a daemon sends
	// on connect, then silence for as long as the coordinator listens.
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "event: job\ndata: %s\n\n",
			mustJSON(t, muontrap.Job{ID: r.PathValue("id"), State: muontrap.JobRunning, Total: 1}))
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		writeJob(w, http.StatusAccepted, muontrap.Job{ID: r.PathValue("id"), State: muontrap.JobCancelled, Total: 1})
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs
}

func mustJSON(t *testing.T, j muontrap.Job) []byte {
	t.Helper()
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetStealsFromStraggler pins work stealing: a cell dispatched to
// a wedged worker must, after StealAfter, be speculatively re-dispatched
// to an idle healthy worker, complete there, and merge byte-identically
// to the single-machine answer — while the straggler's eventual fate
// (it never finishes) stays irrelevant.
func TestFleetStealsFromStraggler(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer figures.ResetRunCache()
	sw := muontrap.Sweep{
		Workloads: []muontrap.Workload{"swaptions"},
		Schemes:   []muontrap.Scheme{"muontrap"},
		Scales:    []float64{0.02},
	}
	ref := reference(t, sw)

	f := newTestFleet(t, 0, fleet.Config{StealAfter: 300 * time.Millisecond})
	// The wedge registers first and alone, so the cell must land on it.
	wedge := wedgedWorker(t)
	agent, err := fleet.StartAgent(fleet.AgentConfig{
		Coordinator: f.hs.URL,
		Name:        "wedge",
		BaseURL:     wedge.URL,
		Interval:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)
	f.waitWorkers(1)

	job, err := f.client.Submit(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.co.Stats().Dispatched == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cell never dispatched to the wedged worker")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Now a healthy worker appears; the straggling cell must be stolen
	// onto it.
	f.addWorker()
	f.waitWorkers(2)

	final, err := f.client.Stream(context.Background(), job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != muontrap.JobDone {
		t.Fatalf("job ended %s (%s), want done via steal", final.State, final.Error)
	}
	got, err := f.client.Result(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshal(t, got)) != string(marshal(t, ref)) {
		t.Fatalf("stolen cell's table differs from reference:\ngot: %s\nref: %s",
			marshal(t, got), marshal(t, ref))
	}
	if st := f.co.Stats(); st.Steals == 0 {
		t.Fatalf("job completed but no steal was recorded: %+v", st)
	}
}
