package fleet

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/muontrap"
	"repro/muontrap/client"
)

// Config sizes a fleet coordinator: the job plane it serves, plus the
// fleet's own scheduling.
type Config struct {
	// Config is the coordinator's job plane — the same internal/service
	// Server a lone daemon is, and configured the same way. Dir is the
	// state root (the plane's journal and result store under Dir/service,
	// the shared checkpoint store under Dir/fleet/store; empty
	// disables persistence and with it coordinator-restart resume and
	// checkpoint migration — workers have nowhere shared to mirror to).
	// Scale, MaxCycles, Warmup and CheckpointEvery are the run-identity
	// flags: they enter every sweep's and every cell's content key. Scale
	// and MaxCycles are resolved here and every dispatched cell carries
	// them, so a worker's own defaults never apply; Warmup and
	// CheckpointEvery MUST match every worker's, or the fleet would
	// compute under one identity and store under another. Tenants,
	// Metrics and Tracer mean what they mean on a daemon. Backend is set
	// by New (the coordinator itself); MaxJobs, Workers and SnapStore do
	// not apply.
	service.Config
	// HeartbeatTimeout marks a worker dead when no heartbeat arrives
	// within it (0 = 5s). Dead workers' in-flight cells re-dispatch with
	// checkpoint-resume enabled.
	HeartbeatTimeout time.Duration
	// StealAfter enables straggler stealing: a cell in flight on exactly
	// one worker for longer than this is speculatively dispatched to a
	// second, idle worker; the first completion wins the merge. Zero
	// disables stealing.
	StealAfter time.Duration
	// PerWorker caps concurrently dispatched cells per worker (0 = 1,
	// matching a default worker's one-sweep-at-a-time runner pool).
	PerWorker int
	// Tick bounds how long scheduling work (dead-worker sweeps, steals)
	// can sit waiting when no completion wakes the scheduler (0 = 100ms).
	Tick time.Duration
}

// workerRetries is the retry budget of the coordinator's per-worker HTTP
// clients.
const workerRetries = 2

// workerFailLimit marks a worker dead after this many consecutive failed
// attempts against it — the fast-path death signal for a worker whose
// process died but whose heartbeat entry has not yet timed out, and for
// one whose agent outlived its daemon.
const workerFailLimit = 3

// Stats is the coordinator's observability surface: the fleet half of
// the /v1/healthz payload (the plane's service.Stats is the other), and
// the source the /metrics worker/scheduler families read at scrape time
// — both views come from this one snapshot.
type Stats struct {
	Workers int `json:"workers"` // registered and alive
	// SuspectWorkers counts alive workers whose last heartbeat is older
	// than half the timeout — still served, but next in line to be
	// declared dead if silence continues.
	SuspectWorkers int    `json:"suspect_workers"`
	DeadWorkersNow int    `json:"dead_workers_now"` // currently registered and dead
	DeadWorkers    uint64 `json:"dead_workers"`     // marked dead over the coordinator's life
	CellsPending   int    `json:"cells_pending"`    // cells of running sweeps not yet merged
	Dispatched     uint64 `json:"dispatched"`       // attempts started
	Migrations     uint64 `json:"migrations"`       // cells re-queued after a worker failure
	Steals         uint64 `json:"steals"`           // speculative straggler dispatches
	Duplicates     uint64 `json:"duplicates"`       // completions discarded at merge (first writer won)
}

// worker is one registered fleet member.
type worker struct {
	id       string
	name     string
	base     string
	client   *client.Client
	lastSeen time.Time
	dead     bool
	inflight int
	fails    int // consecutive failed attempts; reset on success
}

// attempt is one dispatch of one cell to one worker.
type attempt struct {
	w        *worker
	c        *cell
	resume   bool
	ctx      context.Context
	cancel   context.CancelFunc
	remoteID string // worker-side job ID, once known
	closed   bool   // guarded by Coordinator.mu; true once settled
	started  time.Time
}

// cell is one distinct cell of muontrap.Sweep.Cells — a resolved
// (workload, scheme, scale) or (attack, scheme) unit of a sweep: the
// unit of dispatch, migration, stealing and merge.
type cell struct {
	job      *fleetJob
	key      string         // content cache key — the merge identity
	sweep    muontrap.Sweep // the single-cell sub-sweep workers run
	indexes  []int          // declaration positions this cell fills
	resume   bool           // next dispatch passes resume (migration path)
	done     bool
	attempts map[*attempt]struct{} // open attempts
}

// fleetJob is one attempt at a sweep — one Run in progress — and its
// shard map. It lives in the coordinator's table from Run's entry to its
// return; everything durable about the job is the plane's.
type fleetJob struct {
	id       string
	prio     muontrap.Priority
	cells    []*cell
	results  []muontrap.RunResult // per declaration index
	filled   int                  // declaration indexes filled so far
	progress func(muontrap.Progress)
	over     bool          // Run is returning; late completions are duplicates
	err      error         // why, when not because every index was filled
	done     chan struct{} // closed once over (and err) are set
}

// Coordinator shards sweeps across registered workers. It is the
// service.Backend of its own job plane — a service.Server whose admitted
// attempts run on the fleet instead of an in-process Runner — and an
// http.Handler: the /fleet/v1/* control plane (register, heartbeat,
// workers, the shared checkpoint store) and its own /v1/healthz,
// with every other request falling through to the plane.
type Coordinator struct {
	cfg   Config
	plane *service.Server
	mux   *http.ServeMux
	store *checkpoint.Store // shared checkpoint store (nil when Dir == "")
	met   *fleetMetrics     // nil = metrics off

	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup
	wake chan struct{}

	mu      sync.Mutex
	workers map[string]*worker
	jobs    []*fleetJob // sweeps with a Run in progress, in Run-entry order
	stats   Stats
}

// New builds a Coordinator over its own job plane and, when cfg.Dir is
// set, opens the shared checkpoint store and re-queues the jobs a
// previous process left unfinished: the plane's journal surfaces them as
// interrupted, exactly as a daemon's does, and each resumed Run collects
// the cells already in the result store and dispatches only the rest,
// with checkpoint-resume.
func New(cfg Config) (*Coordinator, error) {
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	if cfg.PerWorker <= 0 {
		cfg.PerWorker = 1
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 100 * time.Millisecond
	}
	ctx, stop := context.WithCancel(context.Background())
	co := &Coordinator{
		ctx:     ctx,
		stop:    stop,
		wake:    make(chan struct{}, 1),
		workers: make(map[string]*worker),
	}
	cfg.Backend = co
	cfg.MaxJobs = 0 // the fleet's capacity is the bound
	co.cfg = cfg
	if cfg.Metrics != nil {
		co.met = newFleetMetrics(cfg.Metrics, co)
	}
	if cfg.Dir != "" {
		st, err := checkpoint.NewStore(filepath.Join(cfg.Dir, "fleet", "store"))
		if err != nil {
			stop()
			return nil, fmt.Errorf("fleet: checkpoint store: %w", err)
		}
		co.store = st
	}
	plane, err := service.New(cfg.Config)
	if err != nil {
		stop()
		return nil, err
	}
	co.plane = plane
	co.routes()
	co.wg.Add(1)
	go co.loop()
	for _, id := range plane.InterruptedJobs() {
		if _, err := plane.ResumeJob(id); err != nil {
			fmt.Fprintf(os.Stderr, "fleet: not resuming %s: %v\n", id, err)
		}
	}
	return co, nil
}

// Plane returns the coordinator's job plane, for what a host process
// does to a daemon's Server directly (SIGHUP tenant reload).
func (co *Coordinator) Plane() *service.Server { return co.plane }

// StorePath returns the URL path prefix the shared checkpoint store is
// served under; workers point their checkpoint.HTTPStore at
// coordinatorBase + StorePath.
const StorePath = "/fleet/v1/store"

// Close stops the scheduler, every Run and every attempt, and waits for
// them. Like a daemon's Close it journals nothing: the unwound jobs keep
// their journaled running state and their merged cells stay in the
// result store, which is all a restarted coordinator needs. Workers are
// not told to stop either — to them this is a kill.
func (co *Coordinator) Close() {
	co.stop()
	co.plane.Close()
	co.wg.Wait()
}

// Stats snapshots the coordinator's counters.
func (co *Coordinator) Stats() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	st := co.stats
	now := time.Now()
	for _, w := range co.workers {
		if w.dead {
			st.DeadWorkersNow++
			continue
		}
		st.Workers++
		if now.Sub(w.lastSeen) > co.cfg.HeartbeatTimeout/2 {
			st.SuspectWorkers++
		}
	}
	for _, j := range co.jobs {
		for _, c := range j.cells {
			if !c.done {
				st.CellsPending++
			}
		}
	}
	return st
}

// kick wakes the scheduler without blocking.
func (co *Coordinator) kick() {
	select {
	case co.wake <- struct{}{}:
	default:
	}
}

// loop is the scheduler: a single goroutine that reacts to completions
// (kick) and to time (tick: heartbeat expiry, straggler age).
func (co *Coordinator) loop() {
	defer co.wg.Done()
	t := time.NewTicker(co.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-co.ctx.Done():
			return
		case <-co.wake:
		case <-t.C:
		}
		co.schedule()
	}
}

// schedule is one scheduler pass: expire dead workers, dispatch pending
// cells, steal from stragglers.
func (co *Coordinator) schedule() {
	co.mu.Lock()
	defer co.mu.Unlock()
	now := time.Now()
	for _, w := range co.workers {
		if !w.dead && now.Sub(w.lastSeen) > co.cfg.HeartbeatTimeout {
			co.markWorkerDeadLocked(w)
		}
	}
	co.dispatchLocked(now)
	co.stealLocked(now)
}

// markWorkerDeadLocked retires a worker: its open attempts are settled
// and their unfinished cells re-enter the pool with resume enabled, so
// the next dispatch continues from the dead machine's last mirrored
// checkpoint. Callers hold co.mu.
func (co *Coordinator) markWorkerDeadLocked(w *worker) {
	if w.dead {
		return
	}
	w.dead = true
	co.stats.DeadWorkers++
	co.span(telemetry.Span{Event: "worker_dead", Worker: w.id, Detail: w.name})
	for _, j := range co.jobs {
		for _, c := range j.cells {
			for a := range c.attempts {
				if a.w == w {
					co.closeAttemptLocked(a)
					co.requeueCellLocked(c)
				}
			}
		}
	}
}

// closeAttemptLocked settles an attempt: removed from its cell, its
// worker's slot freed, its stream cancelled. Idempotent. Callers hold
// co.mu.
func (co *Coordinator) closeAttemptLocked(a *attempt) {
	if a.closed {
		return
	}
	a.closed = true
	delete(a.c.attempts, a)
	a.w.inflight--
	a.cancel()
}

// requeueCellLocked returns an unfinished cell with no open attempts to
// the dispatch pool, flagged to resume from its latest mirrored
// checkpoint. Callers hold co.mu.
func (co *Coordinator) requeueCellLocked(c *cell) {
	if c.done || len(c.attempts) > 0 || c.job.over {
		return
	}
	c.resume = true
	co.stats.Migrations++
	co.span(telemetry.Span{
		Event: "requeue", Job: c.job.id, Cell: cellLabel(c),
		Detail: "re-queued resumable after worker failure",
	})
}

// dispatchLocked hands every pending cell to the least-loaded alive
// worker with capacity, interactive jobs first. Callers hold co.mu.
func (co *Coordinator) dispatchLocked(now time.Time) {
	for _, class := range []muontrap.Priority{muontrap.PriorityInteractive, muontrap.PriorityBulk} {
		for _, j := range co.jobs {
			if j.prio != class {
				continue
			}
			for _, c := range j.cells {
				if c.done || len(c.attempts) > 0 {
					continue
				}
				w := co.pickWorkerLocked(nil)
				if w == nil {
					return // no capacity anywhere; later cells need none either
				}
				co.startAttemptLocked(c, w, now)
			}
		}
	}
}

// stealLocked speculatively re-dispatches straggling cells: one open
// attempt, older than StealAfter, with an idle worker available that is
// not the one already running it. First completion wins the merge.
// Callers hold co.mu.
func (co *Coordinator) stealLocked(now time.Time) {
	if co.cfg.StealAfter <= 0 {
		return
	}
	for _, j := range co.jobs {
		for _, c := range j.cells {
			if c.done || len(c.attempts) != 1 {
				continue
			}
			var cur *attempt
			for a := range c.attempts {
				cur = a
			}
			if now.Sub(cur.started) < co.cfg.StealAfter {
				continue
			}
			w := co.pickWorkerLocked(cur.w)
			if w == nil || w.inflight > 0 {
				continue // steal only onto an idle machine
			}
			co.stats.Steals++
			co.span(telemetry.Span{
				Event: "steal", Job: j.id, Cell: cellLabel(c), Worker: w.id,
				Seconds: now.Sub(cur.started).Seconds(),
				Detail:  "straggling on " + cur.w.id,
			})
			co.startAttemptLocked(c, w, now)
		}
	}
}

// pickWorkerLocked returns the alive worker with the most free capacity
// (ties broken by id for determinism), excluding not. Nil when no alive
// worker has capacity. Callers hold co.mu.
func (co *Coordinator) pickWorkerLocked(not *worker) *worker {
	var best *worker
	for _, w := range co.workers {
		if w.dead || w == not || w.inflight >= co.cfg.PerWorker {
			continue
		}
		if best == nil || w.inflight < best.inflight || (w.inflight == best.inflight && w.id < best.id) {
			best = w
		}
	}
	return best
}

// startAttemptLocked dispatches one cell to one worker. Callers hold
// co.mu.
func (co *Coordinator) startAttemptLocked(c *cell, w *worker, now time.Time) {
	ctx, cancel := context.WithCancel(co.ctx)
	a := &attempt{
		w: w, c: c, resume: c.resume,
		ctx: ctx, cancel: cancel, started: now,
	}
	c.attempts[a] = struct{}{}
	w.inflight++
	co.stats.Dispatched++
	detail := ""
	if a.resume {
		detail = "resume"
	}
	co.span(telemetry.Span{
		Event: "dispatch", Job: c.job.id, Cell: cellLabel(c),
		Worker: w.id, Detail: detail,
	})
	co.wg.Add(1)
	go co.runAttempt(a)
}

// runAttempt drives one dispatch to its outcome: submit the single-cell
// sweep to the worker (with resume when the cell migrated), follow the
// remote job's event stream to its terminal event, fetch the result,
// and settle. The stream is what makes a finished cell known here the
// moment the worker publishes it.
func (co *Coordinator) runAttempt(a *attempt) {
	defer co.wg.Done()
	defer a.cancel()
	var opts []client.SubmitOption
	if a.resume {
		opts = append(opts, client.WithResume())
	}
	if a.c.job.prio == muontrap.PriorityInteractive {
		opts = append(opts, client.WithPriority(muontrap.PriorityInteractive))
	}
	job, err := a.w.client.Submit(a.ctx, a.c.sweep, opts...)
	if err != nil {
		co.attemptFailed(a, err)
		return
	}
	co.mu.Lock()
	a.remoteID = job.ID
	co.mu.Unlock()
	if job, err = a.w.client.Stream(a.ctx, job.ID, nil); err != nil {
		co.attemptFailed(a, err)
		return
	}
	switch job.State {
	case muontrap.JobDone:
		res, err := a.w.client.Result(a.ctx, job.ID)
		if err != nil {
			co.attemptFailed(a, err)
			return
		}
		co.attemptDone(a, res)
	case muontrap.JobFailed:
		co.attemptJobFailed(a, job.Error)
	default:
		// Cancelled or interrupted on the worker (restart, preemption by
		// local traffic): not an outcome — re-dispatch resumable.
		co.attemptFailed(a, fmt.Errorf("worker job %s ended %s", job.ID, job.State))
	}
}

// attemptFailed settles a failed attempt: the cell re-enters the pool
// resumable, and a worker accumulating consecutive failures is marked
// dead without waiting out its heartbeat — the fast path for a machine
// that died with its TCP port, or whose agent outlived its daemon.
func (co *Coordinator) attemptFailed(a *attempt, err error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if a.closed {
		return // settled elsewhere (duplicate cancel, dead-worker sweep)
	}
	co.closeAttemptLocked(a)
	if errors.Is(err, context.Canceled) && co.ctx.Err() != nil {
		return // coordinator shutting down; the Run is unwinding too
	}
	co.met.observeAttempt(a.started, false)
	a.w.fails++
	if a.w.fails >= workerFailLimit {
		co.markWorkerDeadLocked(a.w)
	}
	co.requeueCellLocked(a.c)
	co.kick()
}

// attemptDone settles a successful attempt: the first completion of a
// cell merges, any later one is discarded with a counter — the merge is
// idempotent by cache key, so a steal winner and the original finishing
// both can never corrupt the table.
func (co *Coordinator) attemptDone(a *attempt, res *muontrap.SweepResult) {
	co.mu.Lock()
	defer co.mu.Unlock()
	defer co.kick()
	c := a.c
	if !a.closed {
		co.closeAttemptLocked(a)
		a.w.fails = 0
		co.met.observeAttempt(a.started, true)
	}
	if c.done || c.job.over {
		// First writer already won this cell's merge (the check runs even
		// for attempts the winner closed moments ago — a straggler's
		// completion can race the winner's sibling-cancel): the duplicate
		// is counted and discarded, never merged twice.
		co.stats.Duplicates++
		co.span(telemetry.Span{
			Event: "duplicate", Job: c.job.id, Cell: cellLabel(c), Worker: a.w.id,
			Detail: "completion discarded; first writer already merged",
		})
		return
	}
	if res == nil || len(res.Runs) != 1 {
		// Cells are single-cell sweeps by construction.
		n := 0
		if res != nil {
			n = len(res.Runs)
		}
		co.endLocked(c.job, fmt.Errorf("fleet: worker %s returned %d runs for a single-cell sweep", a.w.id, n))
		return
	}
	co.span(telemetry.Span{
		Event: "merge", Job: c.job.id, Cell: cellLabel(c), Worker: a.w.id,
		Seconds: time.Since(a.started).Seconds(),
	})
	// Durable before visible: the cell's one-run result is in the plane's
	// result store, under the cell's own content key, before its progress
	// frame is published — so whatever a client saw merged, a resumed or
	// restarted Run finds stored and never dispatches again. (A failed
	// store is reported by the plane and costs only that re-run.)
	co.plane.StoreSweep(c.sweep, res)
	co.fillLocked(c, res.Runs[0])
	// A slower sibling attempt (straggler being stolen from) is now moot:
	// stop following it and best-effort cancel the remote job.
	for sib := range c.attempts {
		co.closeAttemptLocked(sib)
		co.cancelRemote(sib)
	}
}

// fillLocked records a cell's result — merged from a worker just now, or
// collected from the result store at Run's entry: the run fills every
// declaration index the cell covers, one progress frame is published per
// index, and the Run is released once the last index is filled. Frames
// count in completion order — cells land in whatever order machines
// finish them. Callers hold co.mu, and publishing under it is the point:
// frames leave in merge order, and none can leave after endLocked has
// let Run return (progress is the plane's, which never blocks and never
// calls back — see service.Backend).
func (co *Coordinator) fillLocked(c *cell, run muontrap.RunResult) {
	c.done = true
	j := c.job
	for _, idx := range c.indexes {
		j.results[idx] = run
		j.filled++
		j.progress(muontrap.Progress{Done: j.filled, Total: len(j.results), Run: run})
	}
	if j.filled == len(j.results) {
		co.endLocked(j, nil)
	}
}

// attemptJobFailed fails the whole fleet job: a worker ran the cell and
// the sweep itself errored (not the worker), so every other machine
// would fail it identically.
func (co *Coordinator) attemptJobFailed(a *attempt, msg string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if a.closed {
		return
	}
	co.closeAttemptLocked(a)
	a.w.fails = 0
	co.endLocked(a.c.job, errors.New(msg))
}

// endLocked ends a job's Run — every cell landed (nil err), a worker
// reported the sweep itself failing, or the plane cancelled it — and
// takes the job out of the table: its open attempts are settled and,
// unless the coordinator itself is going down, their remote jobs
// cancelled. The first end wins. Callers hold co.mu.
func (co *Coordinator) endLocked(j *fleetJob, err error) {
	if j.over {
		return
	}
	j.over, j.err = true, err
	close(j.done)
	co.jobs = slices.DeleteFunc(co.jobs, func(o *fleetJob) bool { return o == j })
	for _, c := range j.cells {
		for a := range c.attempts {
			co.closeAttemptLocked(a)
			if co.ctx.Err() == nil {
				co.cancelRemote(a)
			}
		}
	}
}

// cancelRemote best-effort cancels an attempt's worker-side job so a
// stolen-from straggler stops burning cycles on a moot cell. Callers
// hold co.mu (only immutable attempt fields are read in the goroutine).
func (co *Coordinator) cancelRemote(a *attempt) {
	id := a.remoteID
	if id == "" {
		return
	}
	w := a.w
	co.wg.Add(1)
	go func() {
		defer co.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = w.client.Cancel(ctx, id)
	}()
}

// ---- the plane's backend --------------------------------------------

// Run implements service.Backend: one admitted attempt at job's sweep,
// run on the fleet. The sweep is sharded into cells; every cell whose
// result is already in the plane's result store — merged by an earlier
// attempt at this job (cancelled, failed, or cut short by a coordinator
// restart) or by any other sweep that contained it — is collected
// without a dispatch, and the rest enter the dispatch pool, with
// checkpoint-resume when resume is set. Run returns when the last cell
// lands, when a worker reports the sweep itself failing, or when ctx is
// cancelled (DELETE, shutdown), which settles every open attempt.
func (co *Coordinator) Run(ctx context.Context, job muontrap.Job, resume bool, progress func(muontrap.Progress)) (*muontrap.SweepResult, error) {
	j, err := co.shard(job, resume, progress)
	if err != nil {
		return nil, err
	}
	stored := make([]*muontrap.SweepResult, len(j.cells))
	for i, c := range j.cells {
		if res, ok := co.plane.StoredSweep(c.sweep); ok && len(res.Runs) == 1 {
			stored[i] = res
		}
	}
	// Collecting and entering the table are one step under co.mu, so a
	// job that Stats counts as pending has replayed all it had stored.
	co.mu.Lock()
	co.jobs = append(co.jobs, j)
	for i, c := range j.cells {
		if stored[i] != nil {
			co.fillLocked(c, stored[i].Runs[0])
		}
	}
	co.mu.Unlock()
	co.kick()

	select {
	case <-j.done:
	case <-ctx.Done():
		co.mu.Lock()
		co.endLocked(j, ctx.Err())
		co.mu.Unlock()
	}
	if j.err != nil {
		return nil, j.err
	}
	return &muontrap.SweepResult{Runs: j.results}, nil
}

// shard splits a sweep into the cells muontrap.Sweep.Cells lists against
// the plane's defaults — each carrying the resolved scale and cycle
// bound, so a worker runs exactly the cell keyed here — deduplicating
// repeated declarations by cache key (they share one dispatch and one
// merge).
func (co *Coordinator) shard(job muontrap.Job, resume bool, progress func(muontrap.Progress)) (*fleetJob, error) {
	subs, err := job.Sweep.Cells(co.cfg.Scale, co.cfg.MaxCycles)
	if err != nil {
		return nil, err
	}
	j := &fleetJob{
		id:       job.ID,
		prio:     job.Priority,
		results:  make([]muontrap.RunResult, len(subs)),
		progress: progress,
		done:     make(chan struct{}),
	}
	byKey := make(map[string]*cell)
	for idx, sub := range subs {
		key := co.plane.SweepKey(sub)
		c := byKey[key]
		if c == nil {
			c = &cell{job: j, key: key, sweep: sub, resume: resume, attempts: make(map[*attempt]struct{})}
			byKey[key] = c
			j.cells = append(j.cells, c)
		}
		c.indexes = append(c.indexes, idx)
	}
	return j, nil
}

// ---- worker registry ------------------------------------------------

// register admits (or re-admits) a worker. A previous registration at
// the same base URL is retired first — its in-flight cells re-queue —
// so a restarted worker process never leaves a zombie entry holding
// dispatch capacity.
func (co *Coordinator) register(req RegisterRequest) RegisterResponse {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, w := range co.workers {
		if w.base == req.BaseURL && !w.dead {
			co.markWorkerDeadLocked(w)
			co.stats.DeadWorkers-- // replaced, not lost
		}
	}
	w := &worker{
		id:       newWorkerID(),
		name:     req.Name,
		base:     req.BaseURL,
		client:   client.New(req.BaseURL, client.WithRetries(workerRetries)),
		lastSeen: time.Now(),
	}
	co.workers[w.id] = w
	co.kick()
	return RegisterResponse{WorkerID: w.id}
}

// heartbeat refreshes a worker's liveness; false means the coordinator
// does not know (or has retired) the worker and it must re-register.
func (co *Coordinator) heartbeat(req HeartbeatRequest) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	w, ok := co.workers[req.WorkerID]
	if !ok || w.dead {
		return false
	}
	w.lastSeen = time.Now()
	return true
}

// Workers snapshots the registry, sorted by id.
func (co *Coordinator) Workers() []WorkerStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]WorkerStatus, 0, len(co.workers))
	for _, w := range co.workers {
		out = append(out, WorkerStatus{
			ID: w.id, Name: w.name, BaseURL: w.base,
			Alive: !w.dead, Inflight: w.inflight,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// newWorkerID returns a fresh random worker identifier.
func newWorkerID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("w-t%x", time.Now().UnixNano())
	}
	return "w-" + hex.EncodeToString(b[:])
}
