package fleet

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
	"repro/muontrap"
	"repro/muontrap/client"
)

// inertCoordinator builds a coordinator whose scheduler never acts on
// its own (hour-scale tick and timeouts, no workers registered), so a
// test can drive the attempt lifecycle by hand.
func inertCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	co, err := New(Config{
		Config:           service.Config{Dir: t.TempDir(), CheckpointEvery: 2000},
		HeartbeatTimeout: time.Hour,
		Tick:             time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co
}

// admit submits sw to the coordinator's job plane and returns the
// plane-side client and job, plus the one cell of the Run the plane
// started for it — the shard map lives with the Run, not with the job.
func admit(t *testing.T, co *Coordinator, sw muontrap.Sweep) (*client.Client, muontrap.Job, *cell) {
	t.Helper()
	hs := httptest.NewServer(co)
	t.Cleanup(hs.Close)
	cl := client.New(hs.URL)
	job, err := cl.Submit(context.Background(), sw)
	if err != nil || job.State.Terminal() {
		t.Fatalf("submit: %+v err=%v", job, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		co.mu.Lock()
		for _, j := range co.jobs {
			if j.id == job.ID {
				co.mu.Unlock()
				return cl, job, j.cells[0]
			}
		}
		co.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("the plane never started a Run for %s", job.ID)
		}
		time.Sleep(time.Millisecond)
	}
}

// mergedCycles waits for the job to end done and returns the cycle
// count of its single run, as the plane serves it.
func mergedCycles(t *testing.T, cl *client.Client, id string) uint64 {
	t.Helper()
	final, err := cl.Stream(context.Background(), id, nil)
	if err != nil || final.State != muontrap.JobDone {
		t.Fatalf("job ended %+v err=%v, want done", final, err)
	}
	res, err := cl.Result(context.Background(), id)
	if err != nil || len(res.Runs) != 1 {
		t.Fatalf("result %+v err=%v, want one run", res, err)
	}
	return res.Runs[0].Cycles
}

// openAttempt wires a hand-made attempt into a cell exactly as
// startAttemptLocked would, minus the poller goroutine.
func openAttempt(co *Coordinator, c *cell, w *worker) *attempt {
	ctx, cancel := context.WithCancel(context.Background())
	a := &attempt{w: w, c: c, ctx: ctx, cancel: cancel, started: time.Now()}
	co.mu.Lock()
	c.attempts[a] = struct{}{}
	w.inflight++
	co.mu.Unlock()
	return a
}

func run(cycles uint64) *muontrap.SweepResult {
	return &muontrap.SweepResult{Runs: []muontrap.RunResult{{
		Workload: "swaptions", Scheme: "muontrap", Scale: 0.02,
		Result: muontrap.Result{Cycles: cycles, Instructions: cycles * 2},
	}}}
}

// TestMergeDuplicateCompletionIdempotent is the satellite regression
// for the steal/migration race: when two attempts of the same cell both
// finish — the steal winner and the original, or a migrated re-dispatch
// and a worker wrongly presumed dead — the first completion wins the
// merge by cache key and the second is discarded with a counter, never
// merged. The job's table must carry the first writer's run untouched.
func TestMergeDuplicateCompletionIdempotent(t *testing.T) {
	co := inertCoordinator(t)
	sw := muontrap.Sweep{
		Workloads: []muontrap.Workload{"swaptions"},
		Schemes:   []muontrap.Scheme{"muontrap"},
		Scales:    []float64{0.02},
	}
	cl, job, c := admit(t, co, sw)

	w1 := &worker{id: "w1"}
	w2 := &worker{id: "w2"}
	a1 := openAttempt(co, c, w1)
	a2 := openAttempt(co, c, w2)

	co.attemptDone(a1, run(1111))
	co.attemptDone(a2, run(2222)) // the duplicate: same cell, later finish

	if got := mergedCycles(t, cl, job.ID); got != 1111 {
		t.Fatalf("merged run has %d cycles: the duplicate overwrote the first writer (want 1111)", got)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.stats.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", co.stats.Duplicates)
	}
	if w1.inflight != 0 || w2.inflight != 0 {
		t.Fatalf("worker slots not released: w1=%d w2=%d", w1.inflight, w2.inflight)
	}
	if len(c.attempts) != 0 {
		t.Fatalf("%d attempts still open on a merged cell", len(c.attempts))
	}
}

// TestShardSlotsAreTheSweepsCells: the plane's job size and the
// coordinator's result slots are both the length of the sweep's cell
// list, for a sweep with two scales, the empty-scheme alias beside its
// name, and an attack. The alias and its name resolve to the same cells,
// so they share dispatches but not slots; every dispatched cell carries
// the plane's resolved cycle bound.
func TestShardSlotsAreTheSweepsCells(t *testing.T) {
	co := inertCoordinator(t)
	sw := muontrap.Sweep{
		Workloads: []muontrap.Workload{"swaptions"},
		Schemes:   []muontrap.Scheme{"", "insecure", "muontrap"},
		Scales:    []float64{0.02, 0.03},
		Attacks:   []muontrap.AttackName{muontrap.AttackSpectre},
	}
	cells, err := sw.Cells(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, job, c := admit(t, co, sw)
	co.mu.Lock()
	defer co.mu.Unlock()
	j := c.job
	if job.Total != len(cells) || len(j.results) != len(cells) {
		t.Fatalf("Job.Total %d, result slots %d; want both len(cells) = %d", job.Total, len(j.results), len(cells))
	}
	// The alias repeats two workload cells and one attack cell.
	if len(cells) != 9 || len(j.cells) != 6 {
		t.Fatalf("%d cells, %d distinct; want 9 and 6", len(cells), len(j.cells))
	}
	for _, d := range j.cells {
		if d.sweep.MaxCycles != 40_000_000 || (len(d.sweep.Workloads) == 1 && len(d.sweep.Scales) != 1) {
			t.Fatalf("dispatched cell %+v lacks the resolved scale or cycle bound", d.sweep)
		}
	}
}

// TestMergeDuplicateAfterSiblingCancel pins the narrower race inside
// the same regression: the winner's merge closes the sibling attempt
// moments before the sibling's own completion lands. The late
// completion arrives on an already-closed attempt and must still be
// counted and discarded — not dropped silently, and above all not
// merged.
func TestMergeDuplicateAfterSiblingCancel(t *testing.T) {
	co := inertCoordinator(t)
	sw := muontrap.Sweep{
		Workloads: []muontrap.Workload{"blackscholes"},
		Schemes:   []muontrap.Scheme{"stt-spectre"},
		Scales:    []float64{0.02},
	}
	cl, job, c := admit(t, co, sw)

	w1 := &worker{id: "w1"}
	w2 := &worker{id: "w2"}
	a1 := openAttempt(co, c, w1)
	a2 := openAttempt(co, c, w2)

	co.attemptDone(a1, run(1111)) // winner merges and closes a2
	co.mu.Lock()
	if !a2.closed {
		co.mu.Unlock()
		t.Fatal("winner's merge did not close the sibling attempt")
	}
	co.mu.Unlock()

	co.attemptDone(a2, run(2222)) // sibling's completion raced the cancel

	if got := mergedCycles(t, cl, job.ID); got != 1111 {
		t.Fatalf("late duplicate overwrote the merge: %d cycles, want 1111", got)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.stats.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", co.stats.Duplicates)
	}
}
