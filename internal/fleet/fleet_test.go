package fleet_test

import (
	"context"
	"encoding/json"
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
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/service/faultinject"
	"repro/muontrap"
	"repro/muontrap/client"
)

// The fleet chaos suite. Every e2e test here follows the same shape:
// compute the single-machine reference table first, reset the process
// run cache, then run the same sweep through an in-process fleet (a
// coordinator plus N worker daemons over httptest) while injecting the
// failure under test — and require the merged fleet table to be
// byte-identical to the reference. Determinism is the oracle: any
// mis-merge, double-merge, lost cell or wrong-checkpoint resume shows
// up as a byte diff.

// cadence is the mid-run checkpoint interval every leg (reference,
// workers, coordinator key) shares — the cadence is part of run
// identity, so the reference must drain at the same cycle counts the
// fleet does.
const cadence = 2000

// testWorker is one in-process worker daemon: a real service.Server
// with a Mirror checkpoint store (local disk + the coordinator's HTTP
// checkpoint store) behind a heldChain, fronted by a Switchable so a test
// can "kill" the process by swapping in faultinject.Down.
type testWorker struct {
	name   string
	dir    string
	srv    *service.Server
	swit   *faultinject.Switchable
	hs     *httptest.Server
	agent  *fleet.Agent
	remote *checkpoint.HTTPStore
	hold   *heldChain
	dead   bool
}

// heldChain is a worker's checkpoint store that, once armed, holds the
// first checkpoint it saves — after the save, so the checkpoint is
// already in the coordinator's store — until the worker is killed. A
// test that kills the armed worker on that signal kills it mid-cell with
// a shipped checkpoint, however fast the cell would otherwise finish.
type heldChain struct {
	checkpoint.ChainStore
	armed    atomic.Bool
	once     sync.Once
	saved    chan struct{} // closed once the first armed save has landed
	release  chan struct{} // closed by free
	freeOnce sync.Once
}

func newHeldChain(inner checkpoint.ChainStore) *heldChain {
	return &heldChain{ChainStore: inner, saved: make(chan struct{}), release: make(chan struct{})}
}

func (h *heldChain) Save(key string, g uint64, s *checkpoint.Snapshot) error {
	err := h.ChainStore.Save(key, g, s)
	if h.armed.Load() {
		h.once.Do(func() {
			close(h.saved)
			<-h.release
		})
	}
	return err
}

// free lets a held save return, into a run its worker is cancelling.
func (h *heldChain) free() { h.freeOnce.Do(func() { close(h.release) }) }

// killAtFirstCheckpoint arms the victim, runs submit, and kills the
// victim the moment its first mid-run checkpoint has shipped.
func (f *testFleet) killAtFirstCheckpoint(victim *testWorker, submit func() string) {
	f.t.Helper()
	victim.hold.armed.Store(true)
	id := submit()
	deadline := time.After(2 * time.Minute)
	for {
		select {
		case <-victim.hold.saved:
			victim.kill()
			return
		case <-deadline:
			f.t.Fatal("no mid-run checkpoint appeared on the victim before the kill deadline")
		case <-time.After(10 * time.Millisecond):
			if j, err := f.client.Job(context.Background(), id); err == nil && j.State.Terminal() {
				f.t.Fatalf("job reached %s before the victim ever checkpointed", j.State)
			}
		}
	}
}

// snapDir is where the worker's local mid-run checkpoint chains land.
func (w *testWorker) snapDir() string { return filepath.Join(w.dir, "snapshots") }

// kill simulates SIGKILL of the worker process: the HTTP front answers
// like a dead machine, the heartbeat stops, and the service is closed —
// which cancels its in-flight simulations exactly as process death
// would (and, in-process, releases their run-cache entries so a
// migrated attempt on another worker re-simulates instead of waiting on
// the corpse).
func (w *testWorker) kill() {
	if w.dead {
		return
	}
	w.dead = true
	w.swit.Swap(faultinject.Down)
	w.agent.Close()
	w.hold.free()
	w.srv.Close()
}

type testFleet struct {
	t       *testing.T
	dir     string
	cfg     fleet.Config
	co      *fleet.Coordinator
	hs      *httptest.Server
	client  *client.Client
	workers []*testWorker
}

// newTestFleet boots a coordinator and n workers and waits until every
// worker is registered and alive.
func newTestFleet(t *testing.T, n int, cfg fleet.Config) *testFleet {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = cadence
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 500 * time.Millisecond
	}
	co, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(co)
	t.Cleanup(func() {
		hs.Close()
		co.Close()
	})
	f := &testFleet{t: t, dir: cfg.Dir, cfg: cfg, co: co, hs: hs, client: client.New(hs.URL)}
	for i := 0; i < n; i++ {
		f.addWorker()
	}
	f.waitWorkers(n)
	return f
}

// addWorker boots one worker daemon and joins it to the fleet.
func (f *testFleet) addWorker() *testWorker {
	f.t.Helper()
	dir := f.t.TempDir()
	remote := checkpoint.NewHTTPStore(f.hs.URL+fleet.StorePath, nil)
	local, err := checkpoint.NewStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		f.t.Fatal(err)
	}
	hold := newHeldChain(&checkpoint.Mirror{Local: local, Remote: remote})
	srv, err := service.New(service.Config{
		Dir:             dir,
		CheckpointEvery: f.cfg.CheckpointEvery,
		Scale:           f.cfg.Scale,
		MaxCycles:       f.cfg.MaxCycles,
		Warmup:          f.cfg.Warmup,
		SnapStore:       hold,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	swit := faultinject.NewSwitchable(srv)
	hs := httptest.NewServer(swit)
	w := &testWorker{
		name: "w" + string(rune('0'+len(f.workers))), dir: dir,
		srv: srv, swit: swit, hs: hs, remote: remote, hold: hold,
	}
	agent, err := fleet.StartAgent(fleet.AgentConfig{
		Coordinator: f.hs.URL,
		Name:        w.name,
		BaseURL:     hs.URL,
		Interval:    100 * time.Millisecond,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	w.agent = agent
	f.t.Cleanup(func() {
		if !w.dead {
			agent.Close()
			hold.free()
			srv.Close()
		}
		hs.Close()
	})
	f.workers = append(f.workers, w)
	return w
}

// waitWorkers blocks until the coordinator reports n alive workers.
func (f *testFleet) waitWorkers(n int) {
	f.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		alive := 0
		for _, ws := range f.co.Workers() {
			if ws.Alive {
				alive++
			}
		}
		if alive >= n {
			return
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("only %d of %d workers registered in time", alive, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// remoteFetches sums checkpoint downloads from the coordinator's
// checkpoint store across all workers — the witness that a migrated cell
// really resumed from a shipped checkpoint.
func (f *testFleet) remoteFetches() uint64 {
	var n uint64
	for _, w := range f.workers {
		n += w.remote.Fetches()
	}
	return n
}

// marshal renders a SweepResult to the canonical JSON the wire uses.
func marshal(t *testing.T, res *muontrap.SweepResult) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// hasSlot reports whether a snapshot store directory holds any
// checkpoint chain slot (a chain is dropped when its run completes, so a
// slot implies an in-flight checkpointed run).
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

// fig4Sweep is the paper's Figure 4 matrix shape — Parsec kernels under
// the six golden protection schemes — cut to two kernels and the
// harness test scale, exactly as the transport determinism suite uses.
func fig4Sweep() muontrap.Sweep {
	return muontrap.Sweep{
		Workloads: []muontrap.Workload{"swaptions", "blackscholes"},
		Schemes: []muontrap.Scheme{
			"insecure", "muontrap", "invisispec-spectre", "invisispec-future",
			"stt-spectre", "stt-future",
		},
		Scales: []float64{0.02},
	}
}

// reference computes the single-machine answer for sw on a lone daemon
// sharing the fleet's identity flags, then resets the process run cache
// so the fleet leg simulates from scratch.
func reference(t *testing.T, sw muontrap.Sweep) *muontrap.SweepResult {
	t.Helper()
	figures.ResetRunCache()
	srv, err := service.New(service.Config{
		Dir:             t.TempDir(),
		CheckpointEvery: cadence,
		Workers:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer func() {
		hs.Close()
		srv.Close()
	}()
	ref, err := client.New(hs.URL).Sweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	figures.ResetRunCache()
	return ref
}

// TestFleetChaosKillWorkerMidCell is the headline chaos gate: a
// three-worker fleet runs the Figure-4-shaped sweep; one worker is
// killed mid-cell, after its first mid-run checkpoint lands; the
// interrupted cell must migrate to a surviving machine, resume from the
// checkpoint the dead worker mirrored into the coordinator's checkpoint
// store, and the merged fleet table must be byte-identical to the
// uninterrupted single-machine reference.
func TestFleetChaosKillWorkerMidCell(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer figures.ResetRunCache()
	sw := fig4Sweep()
	ref := reference(t, sw)

	f := newTestFleet(t, 3, fleet.Config{})
	var job muontrap.Job
	// Kill worker 0 the moment its first mid-run checkpoint has shipped:
	// the Mirror saves remote-then-local, and the held save returns only
	// into the kill, so the victim dies mid-cell with its checkpoint
	// already in the coordinator's store.
	f.killAtFirstCheckpoint(f.workers[0], func() string {
		var err error
		if job, err = f.client.Submit(context.Background(), sw); err != nil {
			t.Fatal(err)
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
	got, err := f.client.Result(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshal(t, got)) != string(marshal(t, ref)) {
		t.Fatalf("fleet table differs from single-machine reference:\nfleet: %s\nref:   %s",
			marshal(t, got), marshal(t, ref))
	}

	st := f.co.Stats()
	if st.Migrations == 0 {
		t.Fatal("worker killed mid-cell but the coordinator recorded no cell migration")
	}
	if st.DeadWorkers == 0 {
		t.Fatal("worker killed but the coordinator never marked it dead")
	}
	if f.remoteFetches() == 0 {
		t.Fatal("cell migrated but no checkpoint was fetched from the coordinator's checkpoint store")
	}
}

// TestFleetSweepMatchesSingleMachine pins the failure-free path: a
// healthy three-worker fleet must merge the Figure-4 sweep
// byte-identically to a single machine, in declaration order, with a
// born-done answer on resubmission.
func TestFleetSweepMatchesSingleMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer figures.ResetRunCache()
	sw := fig4Sweep()
	ref := reference(t, sw)

	f := newTestFleet(t, 3, fleet.Config{})
	got, err := f.client.Sweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshal(t, got)) != string(marshal(t, ref)) {
		t.Fatalf("fleet table differs from single-machine reference:\nfleet: %s\nref:   %s",
			marshal(t, got), marshal(t, ref))
	}

	// Resubmission is answered born-done from the coordinator's own
	// content-keyed result store — no worker simulates anything.
	before := f.co.Stats().Dispatched
	again, err := f.client.Sweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshal(t, again)) != string(marshal(t, ref)) {
		t.Fatal("born-done resubmission differs from the reference table")
	}
	if after := f.co.Stats().Dispatched; after != before {
		t.Fatalf("born-done resubmission dispatched %d cells, want 0", after-before)
	}
}
