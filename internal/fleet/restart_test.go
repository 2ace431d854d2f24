package fleet_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/muontrap"
	"repro/muontrap/client"
)

// TestCoordinatorRestartResumesShardMap pins coordinator crash-resume:
// a coordinator killed mid-sweep (closed without any terminal state,
// what SIGKILL leaves behind) and restarted over the same directory must
// re-queue the job its journal left running and rebuild the shard map
// from the result store — completed cells keep their merged results and
// are NEVER re-dispatched, pending cells re-enter the pool with
// checkpoint-resume — and the finished table must still be
// byte-identical to the single-machine reference.
func TestCoordinatorRestartResumesShardMap(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer figures.ResetRunCache()
	sw := fig4Sweep()
	ref := reference(t, sw)

	coDir := t.TempDir()
	f := newTestFleet(t, 2, fleet.Config{Config: service.Config{Dir: coDir}})
	// A third worker that never finishes what it is given holds one cell
	// open for as long as the first coordinator lives: since workers
	// report completions the moment they happen the whole sweep takes a
	// fraction of a second, and without the wedge the kill below would
	// have to win a race against it.
	wedge, err := fleet.StartAgent(fleet.AgentConfig{
		Coordinator: f.hs.URL,
		Name:        "wedge",
		BaseURL:     wedgedWorker(t).URL,
		Interval:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wedge.Close)
	f.waitWorkers(3)
	job, err := f.client.Submit(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}

	// Let the fleet merge a few cells, then kill the coordinator.
	deadline := time.Now().Add(2 * time.Minute)
	var doneBefore int
	for {
		j, err := f.client.Job(context.Background(), job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == muontrap.JobDone {
			t.Fatal("fleet finished the whole sweep before the kill point; slow the sweep down")
		}
		doneBefore = j.Done
		if doneBefore >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d cells merged before the kill deadline", doneBefore)
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.hs.Close()
	f.co.Close() // like a kill: no terminal state journaled, attempts abandoned

	// Restart over the same directory. The workers re-join the new
	// coordinator (in production the agent re-registers through its 404
	// path; the new httptest URL forces explicit re-join here).
	co2, err := fleet.New(fleet.Config{
		Config:           service.Config{Dir: coDir, CheckpointEvery: cadence},
		HeartbeatTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(co2)
	t.Cleanup(func() {
		hs2.Close()
		co2.Close()
	})
	c2 := client.New(hs2.URL)

	// The start-up re-queue runs the job again; its Run collects the
	// stored cells and only then enters the coordinator's table, so once
	// the job's unfinished cells show as pending the replay is complete —
	// and with no worker registered yet nothing else can raise Done.
	for replayBy := time.Now().Add(10 * time.Second); co2.Stats().CellsPending == 0; {
		if time.Now().After(replayBy) {
			t.Fatalf("restarted coordinator never re-queued job %s", job.ID)
		}
		time.Sleep(time.Millisecond)
	}
	restarted, err := c2.Job(context.Background(), job.ID)
	if err != nil {
		t.Fatalf("restarted coordinator lost job %s from its journal: %v", job.ID, err)
	}
	doneAtLoad := restarted.Done
	if doneAtLoad < doneBefore {
		t.Fatalf("restart replayed %d done cells, but %d were observed merged before the kill", doneAtLoad, doneBefore)
	}
	if restarted.State.Terminal() {
		t.Fatalf("restarted job is %s, want a schedulable state", restarted.State)
	}

	for _, w := range f.workers {
		agent, err := fleet.StartAgent(fleet.AgentConfig{
			Coordinator: hs2.URL,
			Name:        w.name,
			BaseURL:     w.hs.URL,
			Interval:    100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(agent.Close)
	}

	final, err := c2.Stream(context.Background(), job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != muontrap.JobDone {
		t.Fatalf("resumed job ended %s (%s), want done", final.State, final.Error)
	}
	got, err := c2.Result(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshal(t, got)) != string(marshal(t, ref)) {
		t.Fatalf("post-restart table differs from reference:\ngot: %s\nref: %s",
			marshal(t, got), marshal(t, ref))
	}

	// The replay gate: the second coordinator dispatched exactly the
	// cells the result store did not hold — a completed cell is never
	// re-run.
	if dispatched := co2.Stats().Dispatched; dispatched != uint64(job.Total-doneAtLoad) {
		t.Fatalf("restarted coordinator dispatched %d cells, want %d (total %d − %d stored)",
			dispatched, job.Total-doneAtLoad, job.Total, doneAtLoad)
	}
}

// TestCoordinatorKilledBeforeTerminalJournalWrite pins the narrowest
// crash window: the coordinator dies after the last cell's result is
// stored but before the job's terminal state reaches the journal — the
// entry still says running, the whole-sweep result was never written,
// every cell key is stored. A restart with no worker at all must serve
// the byte-identical table without dispatching anything.
func TestCoordinatorKilledBeforeTerminalJournalWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer figures.ResetRunCache()
	sw := muontrap.Sweep{
		Workloads: []muontrap.Workload{"swaptions"},
		Schemes:   []muontrap.Scheme{"insecure", "muontrap", "stt-spectre"},
		Scales:    []float64{0.02},
	}
	coDir := t.TempDir()
	f := newTestFleet(t, 2, fleet.Config{Config: service.Config{Dir: coDir}})
	job, err := f.client.Submit(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := f.client.Stream(context.Background(), job.ID, nil); err != nil || final.State != muontrap.JobDone {
		t.Fatalf("first run ended %+v, err %v", final, err)
	}
	want, err := f.client.Result(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	f.hs.Close()
	f.co.Close()

	// Wind the on-disk state back to the crash window.
	// The journal's last record for the job wins, so appending a running
	// record puts the job back where the crash left it.
	journal := filepath.Join(coDir, "service", "journal.log")
	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var le map[string]any
		if err := json.Unmarshal([]byte(line), &le); err != nil {
			t.Fatal(err)
		}
		if le["job"].(map[string]any)["id"] == job.ID {
			e = le
		}
	}
	if e == nil {
		t.Fatalf("no journal record for %s", job.ID)
	}
	rec := e["job"].(map[string]any)
	rec["state"] = string(muontrap.JobRunning)
	rec["done"] = float64(job.Total - 1)
	delete(rec, "finished_at")
	if b, err = json.Marshal(e); err != nil {
		t.Fatal(err)
	}
	jf, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = jf.Write(append(b, '\n'))
	if cerr := jf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(coDir, "service", "sweeps", job.CacheKey+".json")); err != nil {
		t.Fatal(err)
	}

	co2, err := fleet.New(fleet.Config{Config: service.Config{Dir: coDir, CheckpointEvery: cadence}})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(co2)
	t.Cleanup(func() {
		hs2.Close()
		co2.Close()
	})
	c2 := client.New(hs2.URL)
	final, err := c2.Stream(context.Background(), job.ID, nil)
	if err != nil || final.State != muontrap.JobDone {
		t.Fatalf("restarted job ended %+v, err %v; want done from the stored cells alone", final, err)
	}
	got, err := c2.Result(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshal(t, got)) != string(marshal(t, want)) {
		t.Fatalf("post-restart table differs:\ngot:  %s\nwant: %s", marshal(t, got), marshal(t, want))
	}
	if st := co2.Stats(); st.Dispatched != 0 {
		t.Fatalf("restart re-dispatched %d cells of a sweep whose every cell was stored", st.Dispatched)
	}
}
