package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/figures"
	"repro/internal/telemetry"
	"repro/muontrap"
)

// Config sizes the experiment daemon. The zero value serves: an
// ephemeral (journal-less, cache-less) server at the library defaults,
// open (no auth, no quotas, unbounded queue) — exactly the pre-tenancy
// behavior.
type Config struct {
	// Dir is the service root: the figure result/snapshot cache the
	// runners use (it is passed to muontrap.WithCacheDir verbatim) plus
	// the service's own state under Dir/service — the job journal and the
	// completed sweep results keyed by cache key. Empty disables all
	// persistence: jobs die with the process and restart-resume is
	// unavailable.
	Dir string
	// Backend executes admitted attempts. Nil runs them in this process
	// on a muontrap.Runner — the single-machine daemon. A non-nil Backend
	// (the fleet coordinator) brings its own capacity and its own
	// priority rule: Workers and SnapStore are unused, and with MaxJobs
	// zero the plane puts no sweep-slot bound in front of it — every
	// admitted sweep's Run starts at once and slot preemption never
	// fires.
	Backend Backend
	// Workers caps concurrent simulations per sweep (0 = GOMAXPROCS).
	Workers int
	// MaxJobs caps concurrently executing sweeps; further submissions
	// queue. Zero means 1 — one sweep at a time, each using the full
	// worker pool — unless a Backend is set, where it means unbounded.
	MaxJobs int
	// MaxQueue caps jobs waiting for a runner slot across all tenants.
	// Submissions beyond it are shed with 503 + Retry-After instead of
	// queueing unboundedly. Zero means unlimited (the historical
	// behavior).
	MaxQueue int
	// Tenants, when non-empty, switches the daemon to authenticated
	// multi-tenant mode: every endpoint except /v1/healthz requires a
	// configured API key, and per-tenant quotas bound queued and running
	// jobs (over-quota submissions shed with 429 + Retry-After). Empty
	// runs open, exactly as before tenancy existed.
	Tenants []Tenant
	// RetryAfter is the hint returned with shed (429/503) responses.
	// Zero defaults to one second.
	RetryAfter time.Duration
	// Scale and MaxCycles are the defaults a submitted Sweep resolves
	// against when it leaves Scales / MaxCycles empty (see
	// muontrap.Sweep.Resolve; 0 = library default).
	Scale     float64
	MaxCycles int
	// Warmup forwards muontrap.WithWarmup to every job's runner.
	Warmup int
	// CheckpointEvery forwards muontrap.WithCheckpointEvery: with Dir
	// set, every run drains and persists a mid-run checkpoint at this
	// cycle cadence, which is what makes an interrupted job resumable
	// from the middle of a simulation after a daemon restart — and what
	// makes priority preemption cheap: a preempted bulk job loses at
	// most one cadence interval of work. The cadence is part of run
	// identity, so it must match across restarts — every job's cache key
	// covers it, and Resume refuses a job whose key no longer matches.
	CheckpointEvery int
	// SnapStore, when non-nil, overrides where mid-run checkpoints are
	// persisted (muontrap.WithSnapshotStore). Fleet workers install a
	// checkpoint.Mirror here — local disk plus the coordinator's HTTP
	// store — so another machine can resume this daemon's interrupted
	// cells from their latest checkpoint. Nil keeps checkpoints in the
	// Dir-local store, exactly the single-machine behavior.
	SnapStore checkpoint.ChainStore
	// Metrics, when non-nil, registers the service's metric series on it
	// and mounts the registry at GET /metrics (unauthenticated, like
	// /v1/healthz — both are operational probes). Nil disables metrics
	// at zero per-request cost.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives a structured span per job lifecycle
	// edge (submit, queue, dispatch, preempt, requeue, resume, done,
	// failed, cancelled, interrupted). Nil disables tracing.
	Tracer *telemetry.Tracer
}

// Backend is how the plane executes one admitted attempt: run job.Sweep
// under ctx — continuing from mid-run checkpoints when resume is set —
// call progress once per finished cell, and return the
// declaration-ordered result. progress never blocks and never calls
// back into the Backend, so it may be called from any goroutine and
// under the Backend's own locks — but not after Run has returned. A
// Backend must unwind promptly when ctx is cancelled (cancel, preemption
// and shutdown all arrive that way) and return ctx's error. Everything
// else — admission, the job table and
// state machine, journal, result store, streams — is the plane's and is
// the same whichever Backend runs the cells.
type Backend interface {
	Run(ctx context.Context, job muontrap.Job, resume bool, progress func(muontrap.Progress)) (*muontrap.SweepResult, error)
}

// local is the default Backend: the sweep runs in this process on a
// muontrap.Runner sized and keyed by the daemon's flags.
type local struct{ cfg Config }

func (l local) Run(ctx context.Context, job muontrap.Job, resume bool, progress func(muontrap.Progress)) (*muontrap.SweepResult, error) {
	return muontrap.NewRunner(
		muontrap.WithWorkers(l.cfg.Workers),
		muontrap.WithCacheDir(l.cfg.Dir),
		muontrap.WithWarmup(l.cfg.Warmup),
		muontrap.WithCheckpointEvery(l.cfg.CheckpointEvery),
		muontrap.WithScale(l.cfg.Scale),
		muontrap.WithMaxCycles(l.cfg.MaxCycles),
		muontrap.WithResume(resume),
		muontrap.WithSnapshotStore(l.cfg.SnapStore),
		muontrap.WithProgress(progress),
	).Sweep(ctx, job.Sweep)
}

// streamHistory bounds the per-job ring of recent SSE progress frames —
// enough for the paper's full 33×6 evaluation matrix to replay without
// eviction. Subscribers that fall further behind continue from the oldest
// retained frame; a done job's full sequence is synthesized from its
// stored result regardless.
const streamHistory = 256

// streamWriteTimeout disconnects an SSE subscriber whose connection
// cannot accept a write within this bound. The client resumes with
// Last-Event-ID; dead peers stop pinning goroutines.
const streamWriteTimeout = 30 * time.Second

// journalVersion versions the job journal entry layout. (Stored sweep
// results are versioned apart, by figures.SweepKind.)
const journalVersion = 1

// journalName is the job journal under Dir/service: an append-only log
// of jobEntry records, one compact JSON object per line, one line per
// lifecycle transition. The last line for a job ID is its state.
const journalName = "journal.log"

// jobEntry is the JSON layout of one journaled job. The record's cache
// key is the job's whole run identity — resolved matrix, identity flags
// and build — so nothing else needs journaling for a restarted daemon to
// tell whether it may resume the job (see compatible). Entries written
// when the identity flags were journaled beside the record still load:
// the extra fields are ignored.
type jobEntry struct {
	Version int          `json:"version"`
	Job     muontrap.Job `json:"job"`
}

// job is one submitted sweep and its live scheduling state. Lock order:
// the Server mutex may be held while taking job.mu, never the reverse.
type job struct {
	mu     sync.Mutex
	rec    muontrap.Job
	resume bool // run with WithResume (set by Resume and by preemption)
	// tenant is the submitting tenant's live quota state (nil on an open
	// daemon, or when a journaled job's tenant is no longer configured).
	// The pointer and its counters are guarded by Server.mu: a SIGHUP
	// tenant reload rebinds every job to the new table's entries.
	tenant *tenant
	// born is the admission instant (monotonic), for latency metrics.
	born time.Time

	cancel    context.CancelFunc
	cancelled bool // DELETE requested (distinguishes user cancel from server death)
	// preempt marks a running bulk attempt that the scheduler is driving
	// to a resumable boundary so an interactive job can take its slot.
	// The unwound attempt re-queues (resume=true) instead of finishing.
	preempt bool

	// seq numbers published SSE frames; monotonic across attempts so
	// Last-Event-ID cursors stay unambiguous. ring retains the most
	// recent frames; subs are pull-model subscribers (see stream.go).
	seq  uint64
	ring *eventRing
	subs map[*subscriber]struct{}

	result *muontrap.SweepResult
}

// Server is the experiment service: it accepts declarative sweep
// submissions over HTTP, schedules them by priority class on a bounded
// pool of muontrap.Runners with per-tenant admission control, streams
// per-cell progress over SSE, journals job lifecycle under Config.Dir so
// a killed daemon's jobs are resumable, and serves completed results by
// job ID or content cache key. It implements http.Handler.
type Server struct {
	cfg Config
	mux *http.ServeMux
	// tenants holds the live tenant table (nil = open mode). It is an
	// atomic pointer because SIGHUP hot-reload swaps it while request
	// handlers authenticate against it lock-free; the table's quota
	// counters are still guarded by mu.
	tenants atomic.Pointer[tenantTable]
	met     *serviceMetrics   // nil = metrics off
	trace   *telemetry.Tracer // nil = tracing off

	ctx  context.Context // cancelled by Close; job contexts derive from it
	stop context.CancelFunc
	wg   sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string  // submission order, for deterministic listing
	pending [2][]*job // FIFO dispatch queues: [0] interactive, [1] bulk
	running map[*job]struct{}
	started []*job // running jobs in dispatch order (preemption picks the newest bulk)

	shedQuota    uint64 // submissions shed 429 (per-tenant quota)
	shedCapacity uint64 // submissions shed 503 (whole-daemon queue bound)

	// jlog is the open journal, nil until the first append opens it (a
	// daemon that journals nothing creates nothing) and again once
	// Shutdown has drained. jmu serializes appends. Lock order: job.mu,
	// then jmu — a job's records land in the order its states were
	// reached.
	jmu  sync.Mutex
	jlog *os.File
}

// New builds a Server and, when cfg.Dir is set, loads the job journal:
// jobs the previous process left queued or running are surfaced as
// "interrupted" (resumable), completed jobs keep serving their results.
func New(cfg Config) (*Server, error) {
	switch {
	case cfg.Backend == nil:
		cfg.MaxJobs = max(cfg.MaxJobs, 1)
		cfg.Backend = local{cfg}
	case cfg.MaxJobs < 0:
		cfg.MaxJobs = 0 // unbounded: the backend's capacity is the bound
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	tbl, err := newTenantTable(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		ctx:     ctx,
		stop:    stop,
		trace:   cfg.Tracer,
		jobs:    make(map[string]*job),
		running: make(map[*job]struct{}),
	}
	s.tenants.Store(tbl)
	if cfg.Metrics != nil {
		s.met = newServiceMetrics(cfg.Metrics, s)
	}
	s.routes()
	if err := s.loadJournal(); err != nil {
		stop()
		return nil, err
	}
	return s, nil
}

// newJob allocates the live-state shell around a job record.
func (s *Server) newJob(rec muontrap.Job) *job {
	return &job{
		rec:    rec,
		born:   time.Now(),
		ring:   newEventRing(streamHistory),
		subs:   make(map[*subscriber]struct{}),
		tenant: s.tenants.Load().owner(rec.Tenant),
	}
}

// Close cancels every in-flight job context and waits for job goroutines
// to unwind. It deliberately does NOT journal a terminal state for
// running jobs: like a kill, it leaves them recorded as queued/running so
// the next daemon sees them as interrupted and can resume them.
func (s *Server) Close() { s.Shutdown(context.Background()) }

// Shutdown cancels every in-flight job context and waits for the drain,
// bounded by ctx. A completed drain closes the journal (an append after
// it reopens the log). If ctx expires first, the jobs still holding
// runner slots are journaled as interrupted — so the next daemon can
// resume them even though this one is abandoning their goroutines — and
// their IDs are returned (sorted) for the caller to log. A nil return
// means the drain completed.
func (s *Server) Shutdown(ctx context.Context) []string {
	s.stop()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.jmu.Lock()
		if s.jlog != nil {
			s.jlog.Close()
			s.jlog = nil
		}
		s.jmu.Unlock()
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	stuck := make([]*job, 0, len(s.running))
	for j := range s.running {
		stuck = append(stuck, j)
	}
	s.mu.Unlock()
	var abandoned []string
	for _, j := range stuck {
		j.mu.Lock()
		terminal := j.rec.State.Terminal()
		if !terminal {
			j.rec.State = muontrap.JobInterrupted
			abandoned = append(abandoned, j.rec.ID)
		}
		j.mu.Unlock()
		if !terminal {
			s.persist(j)
		}
	}
	sort.Strings(abandoned)
	return abandoned
}

// Stats is the readiness view behind /v1/healthz: scheduler load and
// load-shedding counters.
type Stats struct {
	Jobs       int `json:"jobs"`        // jobs known (all states)
	QueueDepth int `json:"queue_depth"` // jobs waiting for a runner slot
	Running    int `json:"running"`     // jobs holding a runner slot
	MaxJobs    int `json:"max_jobs"`    // 0 = unbounded (a Backend with its own capacity)
	MaxQueue   int `json:"max_queue"`   // 0 = unbounded
	// Shed counters, monotonic over the daemon's life.
	ShedOverQuota    uint64 `json:"shed_over_quota"`    // 429: per-tenant quota
	ShedOverCapacity uint64 `json:"shed_over_capacity"` // 503: whole-daemon queue bound
	Tenants          int    `json:"tenants"`            // configured tenants (0 = open)
}

// Stats snapshots the scheduler's readiness counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Jobs:             len(s.jobs),
		QueueDepth:       len(s.pending[0]) + len(s.pending[1]),
		Running:          len(s.running),
		MaxJobs:          s.cfg.MaxJobs,
		MaxQueue:         s.cfg.MaxQueue,
		ShedOverQuota:    s.shedQuota,
		ShedOverCapacity: s.shedCapacity,
	}
	if tbl := s.tenants.Load(); tbl != nil {
		st.Tenants = len(tbl.byName)
	}
	return st
}

// InterruptedJobs lists the IDs of jobs loaded from the journal in an
// interrupted state, in journal order. The daemon's -auto-resume flag
// feeds these straight back into the queue.
func (s *Server) InterruptedJobs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		if j.rec.State == muontrap.JobInterrupted {
			ids = append(ids, id)
		}
		j.mu.Unlock()
	}
	return ids
}

// conflictError marks a request that names a real resource in the wrong
// state (HTTP 409).
type conflictError struct{ msg string }

func (e *conflictError) Error() string { return e.msg }

// shedError is an admission refusal: the request was not queued, and
// the client should retry after the hinted delay. Status 429 is a
// per-tenant quota, 503 the whole-daemon queue bound.
type shedError struct {
	status     int
	retryAfter time.Duration
	msg        string
}

func (e *shedError) Error() string { return e.msg }

// forbiddenError marks an authenticated request acting on another
// tenant's job (HTTP 403).
type forbiddenError struct{ msg string }

func (e *forbiddenError) Error() string { return e.msg }

// prioIndex maps a priority class to its dispatch queue.
func prioIndex(p muontrap.Priority) int {
	if p == muontrap.PriorityInteractive {
		return 0
	}
	return 1
}

// submit validates a sweep, assigns it a job ID and cache key, and either
// completes it instantly from the stored result, or admits it against the
// queue bound and the tenant's quota and schedules it. The bool reports
// whether the result was served from the content cache. resume starts the
// first attempt with checkpoint-resume enabled — the fleet coordinator
// sets it when re-dispatching a cell another machine already checkpointed;
// with no matching checkpoint it is a silent cold start.
func (s *Server) submit(sw muontrap.Sweep, prio muontrap.Priority, tn *tenant, resume bool) (muontrap.Job, bool, error) {
	cells, err := sw.Cells(s.cfg.Scale, s.cfg.MaxCycles)
	if err != nil {
		return muontrap.Job{}, false, err
	}
	prio, err = muontrap.ParsePriority(string(prio))
	if err != nil {
		return muontrap.Job{}, false, err
	}
	key := s.SweepKey(sw)
	rec := muontrap.Job{
		ID:          newJobID(),
		State:       muontrap.JobQueued,
		Sweep:       sw,
		CacheKey:    key,
		Priority:    prio,
		Total:       len(cells),
		SubmittedAt: time.Now().UTC().Format(time.RFC3339),
	}
	if tn != nil {
		rec.Tenant = tn.Name
	}
	j := s.newJob(rec)
	j.tenant = tn
	j.resume = resume

	// A stored result for this exact matrix + options + binary means the
	// job is already done: content keys make resubmission free, and a
	// born-done job consumes neither queue depth nor quota.
	if res, ok := s.loadResult(key); ok {
		j.rec.State = muontrap.JobDone
		j.rec.Done = len(cells)
		j.rec.FinishedAt = j.rec.SubmittedAt
		j.result = res
		s.mu.Lock()
		s.registerLocked(j)
		s.mu.Unlock()
		s.persist(j)
		s.met.jobSubmitted(true)
		s.met.observeJobSeconds(rec.Tenant, sinceSeconds(j.born))
		s.span("submit", j, 0, "cache-hit")
		s.span("done", j, sinceSeconds(j.born), "served from result store")
		return j.snapshot(), true, nil
	}

	s.mu.Lock()
	if err := s.admitLocked(tn); err != nil {
		s.mu.Unlock()
		return muontrap.Job{}, false, err
	}
	if tn != nil {
		tn.queued++
	}
	s.registerLocked(j)
	s.pending[prioIndex(prio)] = append(s.pending[prioIndex(prio)], j)
	s.span("submit", j, 0, string(prio))
	s.span("queue", j, 0, "")
	s.dispatchLocked()
	s.mu.Unlock()
	s.persist(j)
	s.met.jobSubmitted(false)
	return j.snapshot(), false, nil
}

// admitLocked applies admission control for one enqueue: the global
// queue bound first (the daemon protecting itself), then the tenant's
// queued quota (tenants protecting each other).
func (s *Server) admitLocked(tn *tenant) error {
	if s.cfg.MaxQueue > 0 && len(s.pending[0])+len(s.pending[1]) >= s.cfg.MaxQueue {
		s.shedCapacity++
		return &shedError{
			status:     http.StatusServiceUnavailable,
			retryAfter: s.cfg.RetryAfter,
			msg:        fmt.Sprintf("submission queue is full (%d waiting, bound %d); retry later", len(s.pending[0])+len(s.pending[1]), s.cfg.MaxQueue),
		}
	}
	if tn != nil && tn.MaxQueued > 0 && tn.queued >= tn.MaxQueued {
		s.shedQuota++
		return &shedError{
			status:     http.StatusTooManyRequests,
			retryAfter: s.cfg.RetryAfter,
			msg:        fmt.Sprintf("tenant %s has %d jobs queued (quota %d); retry later", tn.Name, tn.queued, tn.MaxQueued),
		}
	}
	return nil
}

// registerLocked adds a job to the in-memory table in submission order.
func (s *Server) registerLocked(j *job) {
	s.jobs[j.rec.ID] = j
	s.order = append(s.order, j.rec.ID)
}

// tenantCanRunLocked reports whether dispatching j now would respect its
// tenant's running quota.
func (s *Server) tenantCanRunLocked(j *job) bool {
	tn := j.tenant
	return tn == nil || tn.MaxRunning == 0 || tn.running < tn.MaxRunning
}

// popLocked removes and returns the next dispatchable job: interactive
// before bulk, FIFO within a class, skipping (not shedding) jobs whose
// tenant is at its running quota. Nil when nothing is dispatchable.
func (s *Server) popLocked() *job {
	for class := range s.pending {
		for i, j := range s.pending[class] {
			if s.tenantCanRunLocked(j) {
				s.pending[class] = append(s.pending[class][:i:i], s.pending[class][i+1:]...)
				return j
			}
		}
	}
	return nil
}

// slotFreeLocked reports whether another sweep may start now.
func (s *Server) slotFreeLocked() bool {
	return s.cfg.MaxJobs == 0 || len(s.running) < s.cfg.MaxJobs
}

// dispatchLocked fills free runner slots from the priority queues, then
// — when interactive work is still waiting with every slot busy —
// preempts bulk jobs to free slots for it. Callers hold s.mu.
func (s *Server) dispatchLocked() {
	if s.ctx.Err() != nil {
		return // shutting down: strand queued jobs for the journal
	}
	for s.slotFreeLocked() {
		j := s.popLocked()
		if j == nil {
			break
		}
		s.running[j] = struct{}{}
		s.started = append(s.started, j)
		if j.tenant != nil {
			j.tenant.queued--
			j.tenant.running++
		}
		s.startLocked(j)
	}
	s.preemptLocked()
}

// preemptLocked drives running bulk jobs to a resumable boundary when
// interactive jobs are waiting and every slot is busy. The victim is the
// most recently dispatched bulk job (least sunk work beyond its last
// checkpoint); its context is cancelled, and finish re-queues it with
// resume enabled instead of recording a terminal state.
func (s *Server) preemptLocked() {
	if s.slotFreeLocked() {
		return // a slot is free; anything still queued is tenant-capped
	}
	need := 0
	for _, j := range s.pending[0] {
		if s.tenantCanRunLocked(j) {
			need++
		}
	}
	if need == 0 {
		return
	}
	// Slots already unwinding toward a free state count against need.
	for j := range s.running {
		j.mu.Lock()
		if j.preempt {
			need--
		}
		j.mu.Unlock()
	}
	for i := len(s.started) - 1; i >= 0 && need > 0; i-- {
		j := s.started[i]
		j.mu.Lock()
		if j.rec.Priority != muontrap.PriorityInteractive && !j.preempt && !j.cancelled && j.cancel != nil {
			j.preempt = true
			j.cancel()
			need--
			s.met.jobPreempted()
			s.spanLocked("preempt", j, 0, "unwinding to checkpoint for interactive work")
		}
		j.mu.Unlock()
	}
}

// startLocked hands a dispatched job its context and launches the run
// goroutine. Callers hold s.mu.
func (s *Server) startLocked(j *job) {
	ctx, cancel := context.WithCancel(s.ctx)
	j.mu.Lock()
	j.cancel = cancel
	if j.cancelled {
		// A DELETE raced ahead of this attempt getting its cancel func
		// (or hit the spent func of a previous attempt). Honor it now:
		// pre-cancel the fresh context so the goroutine unwinds into the
		// cancelled state instead of silently running to completion.
		cancel()
	}
	resume := j.resume
	rec := j.rec
	s.spanLocked("dispatch", j, 0, "")
	j.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		if !j.setRunning() {
			// Reached a terminal state between dispatch and start.
			s.releaseSlot(j)
			return
		}
		s.persist(j)
		res, err := s.cfg.Backend.Run(ctx, rec, resume, j.publishProgress)
		s.finish(j, res, err)
	}()
}

// setRunning transitions queued → running; it refuses (false) if the job
// reached a terminal state first (e.g. cancelled while queued).
func (j *job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rec.State != muontrap.JobQueued {
		return false
	}
	j.rec.State = muontrap.JobRunning
	return true
}

// releaseSlot returns a job's runner slot to the scheduler and
// re-dispatches.
func (s *Server) releaseSlot(j *job) {
	s.mu.Lock()
	s.releaseSlotLocked(j)
	s.dispatchLocked()
	s.mu.Unlock()
}

// releaseSlotLocked removes j from the running set and its tenant's
// running count. Callers hold s.mu.
func (s *Server) releaseSlotLocked(j *job) {
	if _, held := s.running[j]; !held {
		return
	}
	delete(s.running, j)
	for i, r := range s.started {
		if r == j {
			s.started = append(s.started[:i:i], s.started[i+1:]...)
			break
		}
	}
	if j.tenant != nil {
		j.tenant.running--
	}
}

// finish records a sweep outcome and wakes every stream subscriber with
// the terminal event — except for a preempted attempt, which is not an
// outcome at all: the job re-enters the queue as resumable, subscribers
// stay attached, and the resumed attempt streams its cells under fresh
// frame ids. The one deliberately un-journaled transition is
// interruption by server shutdown: that job keeps its journaled
// queued/running state, exactly as if the process had been SIGKILLed,
// so the next daemon marks it interrupted and can resume it. Every real
// outcome — done, failed, or a user cancellation that unwound while the
// daemon was going down — is journaled as such, so a restart never
// resurrects work that genuinely ended.
func (s *Server) finish(j *job, res *muontrap.SweepResult, err error) {
	serverDying := s.ctx.Err() != nil

	j.mu.Lock()
	if err != nil && j.preempt && !j.cancelled && !serverDying {
		// Preempted for an interactive job. The attempt unwound at its
		// latest checkpointable boundary; re-queue it resumable, in its
		// own priority class, behind work already waiting.
		j.preempt = false
		j.resume = true
		j.cancel = nil
		j.rec.State = muontrap.JobQueued
		j.rec.Done = 0
		j.ring.clear()
		class := prioIndex(j.rec.Priority)
		s.spanLocked("requeue", j, 0, "preempted attempt re-queued resumable")
		j.mu.Unlock()
		s.persist(j)
		s.mu.Lock()
		s.releaseSlotLocked(j)
		if j.tenant != nil {
			j.tenant.queued++
		}
		s.pending[class] = append(s.pending[class], j)
		s.dispatchLocked()
		s.mu.Unlock()
		return
	}

	j.preempt = false
	switch {
	case err == nil:
		j.rec.State = muontrap.JobDone
		j.rec.Done = j.rec.Total
		j.result = res
		// The ring keeps its frames: a subscriber mid-replay continues
		// through the real (completion-ordered) sequence it was reading.
		// Memory stays bounded — the ring never exceeds its capacity —
		// and subscribers arriving after the frames are gone (daemon
		// restart, born-done cache hits) get a replay synthesized from
		// the result instead.
	case j.cancelled:
		j.rec.State = muontrap.JobCancelled
	case serverDying:
		j.rec.State = muontrap.JobInterrupted
	default:
		j.rec.State = muontrap.JobFailed
		j.rec.Error = err.Error()
	}
	j.rec.FinishedAt = time.Now().UTC().Format(time.RFC3339)
	state := j.rec.State
	elapsed := sinceSeconds(j.born)
	tenantName := j.rec.Tenant
	// Durable before visible: the result store and the journal are written
	// while j.mu still hides the terminal state, so a client that sees
	// "done" (stream or poll) and at once resubmits, or restarts the daemon
	// over the same directory, finds the result and the done record there.
	if state == muontrap.JobDone && s.storeResult(j.rec.CacheKey, res) {
		// Durably stored: serve future fetches from disk and let the
		// in-memory copy go. (On a store failure — or an ephemeral,
		// cache-less daemon — the memory copy stays authoritative.)
		j.result = nil
	}
	if state != muontrap.JobInterrupted {
		s.journal(j.rec)
	}
	for sub := range j.subs {
		sub.poke()
	}
	s.spanLocked(string(state), j, elapsed, j.rec.Error)
	j.mu.Unlock()
	s.met.observeJobSeconds(tenantName, elapsed)
	s.releaseSlot(j)
}

// cancelJob aborts a queued or running job. A job still waiting in the
// dispatch queue — one that never held a runner slot — transitions
// queued → cancelled synchronously, consuming nothing; a running job's
// state flips once the simulation has actually unwound (promptly: the
// cycle loop polls its context every 64 simulated cycles), so the
// returned snapshot may still say running.
func (s *Server) cancelJob(id string) (muontrap.Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return muontrap.Job{}, fmt.Errorf("%w %q", muontrap.ErrUnknownJob, id)
	}
	j.mu.Lock()
	switch j.rec.State {
	case muontrap.JobQueued:
		if s.removePendingLocked(j) {
			// Never dispatched: cancel is synchronous and slot-free.
			j.cancelled = true
			j.rec.State = muontrap.JobCancelled
			j.rec.FinishedAt = time.Now().UTC().Format(time.RFC3339)
			if j.tenant != nil {
				j.tenant.queued--
			}
			for sub := range j.subs {
				sub.poke()
			}
			rec := j.rec
			s.spanLocked("cancelled", j, sinceSeconds(j.born), "cancelled while queued")
			j.mu.Unlock()
			s.dispatchLocked() // a preemption may now be unnecessary; harmless otherwise
			s.mu.Unlock()
			s.persist(j)
			s.met.observeJobSeconds(rec.Tenant, sinceSeconds(j.born))
			return rec, nil
		}
		// Dispatched but not yet running: flag + cancel, the attempt
		// unwinds into cancelled through finish.
		j.cancelled = true
		if j.cancel != nil {
			j.cancel()
		}
	case muontrap.JobRunning:
		j.cancelled = true
		if j.cancel != nil {
			j.cancel()
		}
	case muontrap.JobCancelled: // idempotent
	default:
		state := j.rec.State
		j.mu.Unlock()
		s.mu.Unlock()
		return muontrap.Job{}, &conflictError{fmt.Sprintf("job %s is %s and cannot be cancelled", id, state)}
	}
	rec := j.rec
	j.mu.Unlock()
	s.mu.Unlock()
	return rec, nil
}

// removePendingLocked drops j from whichever dispatch queue holds it,
// reporting whether it was found. Callers hold s.mu.
func (s *Server) removePendingLocked(j *job) bool {
	for class := range s.pending {
		for i, p := range s.pending[class] {
			if p == j {
				s.pending[class] = append(s.pending[class][:i:i], s.pending[class][i+1:]...)
				return true
			}
		}
	}
	return false
}

// ResumeJob re-enters a terminal, non-done job into the queue with the
// checkpoint-resume path enabled, against the same admission control as
// a fresh submission (the job's own tenant pays the quota). It is the
// engine behind POST /v1/jobs/{id}/resume (and the daemon's
// -auto-resume).
func (s *Server) ResumeJob(id string) (muontrap.Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return muontrap.Job{}, fmt.Errorf("%w %q", muontrap.ErrUnknownJob, id)
	}
	j.mu.Lock()
	switch j.rec.State {
	case muontrap.JobInterrupted, muontrap.JobCancelled, muontrap.JobFailed:
	default:
		state := j.rec.State
		j.mu.Unlock()
		s.mu.Unlock()
		return muontrap.Job{}, &conflictError{fmt.Sprintf(
			"job %s is %s; only interrupted, cancelled or failed jobs can be resumed", id, state)}
	}
	if err := s.compatible(j.rec); err != nil {
		j.mu.Unlock()
		s.mu.Unlock()
		return muontrap.Job{}, err
	}
	if err := s.admitLocked(j.tenant); err != nil {
		j.mu.Unlock()
		s.mu.Unlock()
		return muontrap.Job{}, err
	}
	j.rec.State = muontrap.JobQueued
	j.rec.Error = ""
	j.rec.FinishedAt = ""
	j.rec.Done = 0
	j.resume = true
	j.cancelled = false
	j.preempt = false
	j.cancel = nil
	j.ring.clear() // the resumed attempt streams its own full sequence
	rec := j.rec
	class := prioIndex(j.rec.Priority)
	s.spanLocked("resume", j, 0, "")
	s.spanLocked("queue", j, 0, "")
	j.mu.Unlock()
	if j.tenant != nil {
		j.tenant.queued++
	}
	s.pending[class] = append(s.pending[class], j)
	s.dispatchLocked()
	s.mu.Unlock()
	s.persist(j)
	s.met.jobResumed()
	return rec, nil
}

// publishProgress mirrors one completed cell to the job record and the
// frame ring, and pokes every subscriber. Publishing never blocks on a
// consumer: subscribers pull frames from the ring at their own cursor.
func (j *job) publishProgress(p muontrap.Progress) {
	data, err := json.Marshal(p)
	if err != nil {
		return
	}
	j.mu.Lock()
	j.rec.Done = p.Done
	j.rec.Total = p.Total
	j.seq++
	j.ring.append(streamEvent{id: j.seq, name: "progress", data: data})
	for sub := range j.subs {
		sub.poke()
	}
	j.mu.Unlock()
}

// attach registers a stream subscriber.
func (j *job) attach() *subscriber {
	sub := &subscriber{wake: make(chan struct{}, 1)}
	j.mu.Lock()
	j.subs[sub] = struct{}{}
	j.mu.Unlock()
	return sub
}

// detach removes a stream subscriber (client went away or was shed).
func (j *job) detach(sub *subscriber) {
	j.mu.Lock()
	delete(j.subs, sub)
	j.mu.Unlock()
}

// eventsSince atomically snapshots the retained frames newer than
// cursor and the job record, so a subscriber observes frames and the
// terminal state in a consistent order.
func (j *job) eventsSince(cursor uint64) ([]streamEvent, muontrap.Job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.since(cursor), j.rec
}

// snapshot returns a copy of the public record.
func (j *job) snapshot() muontrap.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// doneResult returns a done job's result — the in-memory copy when the
// job holds one (ephemeral daemon, or the store write failed), otherwise
// the content-keyed store.
func (s *Server) doneResult(j *job) (*muontrap.SweepResult, bool) {
	j.mu.Lock()
	res := j.result
	key := j.rec.CacheKey
	done := j.rec.State == muontrap.JobDone
	j.mu.Unlock()
	if !done {
		return nil, false
	}
	if res != nil {
		return res, true
	}
	return s.loadResult(key)
}

// lookup finds a job by ID.
func (s *Server) lookup(id string) (*job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", muontrap.ErrUnknownJob, id)
	}
	return j, nil
}

// SweepKey derives the content key of a sweep's result: the sweep as
// resolved against this plane's defaults (muontrap.Sweep.Resolve — so the
// empty scheme and the insecure baseline, or an omitted scale and the
// default one, share one stored result), in declaration order (order is
// part of the result — SweepResult is declaration-ordered), every option
// that can change an outcome (scales, cycle bound, warm-up depth,
// checkpoint cadence), and the simulator build fingerprint, rendered by
// the one key encoder (figures.KeyKind.Key) as the sweep kind. Worker
// count is deliberately absent: the repo's determinism tests pin that
// parallelism never changes results.
// Priority and tenant are absent for the same reason — they decide when
// a result is computed, never what it is. It is the one key function of
// the job plane: a fleet coordinator keys each cell — a single-cell
// sweep — with it, so the coordinator, its workers and a lone daemon
// under the same flags agree on what "the same experiment" means.
func (s *Server) SweepKey(sw muontrap.Sweep) string {
	sw = sw.Resolve(s.cfg.Scale, s.cfg.MaxCycles)
	scales := make([]string, len(sw.Scales))
	for i, sc := range sw.Scales {
		scales[i] = strconv.FormatFloat(sc, 'g', -1, 64)
	}
	canon := figures.SweepKind.Key(
		"wl", names(sw.Workloads),
		"atk", names(sw.Attacks),
		"sch", names(sw.Schemes),
		"scales", strings.Join(scales, ","),
		"max", strconv.Itoa(sw.MaxCycles),
		"warm", strconv.Itoa(s.cfg.Warmup),
		"every", strconv.Itoa(s.cfg.CheckpointEvery))
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:])
}

// names joins a declaration's identifiers with commas, as the sweep key
// spells them.
func names[T ~string](ids []T) string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return strings.Join(out, ",")
}

// newJobID returns a fresh random job identifier.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable noise; fall back to a
		// time-derived ID rather than refusing service.
		return fmt.Sprintf("job-t%x", time.Now().UnixNano())
	}
	return "job-" + hex.EncodeToString(b[:])
}

// ---- persistence: the job journal and the content-keyed result store --

func (s *Server) resultStorePath(key string) string {
	return filepath.Join(s.cfg.Dir, "service", "sweeps", key+".json")
}

// validCacheKey reports whether key has the exact shape SweepKey
// produces: 64 lowercase hex digits. Everything else is rejected before
// any filesystem path is built from it — /v1/results/{key} takes the
// key from the URL, and Go's ServeMux decodes %2F inside a path
// segment, so an unvalidated key would traverse out of the sweeps
// directory and serve arbitrary *.json files to unauthenticated
// clients.
func validCacheKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// persist journals a job's current record. It holds j.mu across the
// copy and the append, so no older state of the job can land after a
// newer one.
func (s *Server) persist(j *job) {
	j.mu.Lock()
	s.journal(j.rec)
	j.mu.Unlock()
}

// journal appends one job record to the journal: a single write to the
// O_APPEND log, which survives a process kill once it returns. Like the
// result store it does not fsync. Best-effort but loud: losing the
// journal degrades restart-resume, so failures are reported on stderr
// rather than swallowed.
func (s *Server) journal(rec muontrap.Job) {
	if s.cfg.Dir == "" {
		return
	}
	b, err := json.Marshal(jobEntry{Version: journalVersion, Job: rec})
	if err != nil {
		return
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if err := s.appendJournalLocked(append(b, '\n')); err != nil {
		fmt.Fprintf(os.Stderr, "muontrapd: journaling %s failed: %v\n", rec.ID, err)
	}
}

// appendJournalLocked writes b at the end of Dir/service/journal.log,
// opening the log first (and creating it, the first time) unless it is
// open. Callers hold s.jmu.
func (s *Server) appendJournalLocked(b []byte) error {
	if s.jlog == nil {
		path := filepath.Join(s.cfg.Dir, "service", journalName)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		s.jlog = f
	}
	_, err := s.jlog.Write(b)
	return err
}

// storeResult persists a completed sweep's result under its cache key,
// reporting whether it durably landed.
func (s *Server) storeResult(key string, res *muontrap.SweepResult) bool {
	if s.cfg.Dir == "" || res == nil {
		return false
	}
	b, err := json.MarshalIndent(res, "", "\t")
	if err != nil {
		return false
	}
	path := s.resultStorePath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "muontrapd: result store unavailable: %v\n", err)
		return false
	}
	if err := checkpoint.WriteAtomic(path, b); err != nil {
		fmt.Fprintf(os.Stderr, "muontrapd: storing result %s failed: %v\n", key, err)
		return false
	}
	return true
}

// loadResult fetches a stored sweep result by cache key. Any failure —
// including a key that is not the canonical 64-hex shape — is a miss:
// the store is an accelerator, never an oracle, and never a path oracle
// either.
func (s *Server) loadResult(key string) (*muontrap.SweepResult, bool) {
	if s.cfg.Dir == "" || !validCacheKey(key) {
		return nil, false
	}
	b, err := os.ReadFile(s.resultStorePath(key))
	if err != nil {
		return nil, false
	}
	var res muontrap.SweepResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, false
	}
	return &res, true
}

// StoredSweep returns the stored result of sw under this plane's
// identity flags, if there is one, and StoreSweep stores res as that
// result, reporting whether it durably landed. They are the result
// store as a Backend sees it: the fleet coordinator files every merged
// cell — a single-cell sweep — here before publishing its progress
// frame, and any later attempt at a sweep containing that cell starts by
// collecting it instead of dispatching it.
func (s *Server) StoredSweep(sw muontrap.Sweep) (*muontrap.SweepResult, bool) {
	return s.loadResult(s.SweepKey(sw))
}

func (s *Server) StoreSweep(sw muontrap.Sweep, res *muontrap.SweepResult) bool {
	return s.storeResult(s.SweepKey(sw), res)
}

// compatible verifies, before a resume, that a job's cache key is the one
// this daemon computes for its sweep — exactly the condition under which
// the resumed attempt stores its result under the right key. The key
// covers the default scale and cycle bound, warm-up, checkpoint cadence
// and the simulator build, so a journaled job fails it on a daemon
// restarted under other flags, or rebuilt, and its resume is refused
// (409). The job itself still loads and serves: one stale entry must not
// brick the daemon.
func (s *Server) compatible(rec muontrap.Job) error {
	key := s.SweepKey(rec.Sweep)
	if key == rec.CacheKey {
		return nil
	}
	return &conflictError{fmt.Sprintf("job %s is keyed %.12s…, but this daemon keys its sweep %.12s… "+
		"(the key covers the default scale and cycle bound, warm-up, checkpoint cadence and simulator build); "+
		"restart with the original flags and build to resume it, or resubmit the sweep", rec.ID, rec.CacheKey, key)}
}

// loadJournal restores the job table from Dir/service/journal.log (see
// replayJournal). A log that does not end in a newline ends in a record
// torn by a crash: replay skips it, and a newline is appended at once so
// that the next record starts a line of its own. A resume of an entry
// whose cache key is not the one this daemon computes is refused; see
// compatible. A Dir/service/jobs directory of per-job files, written by
// older builds, is not read: its jobs carry that build's cache key, so
// none of them could resume here, and their results stay fetchable by
// key.
func (s *Server) loadJournal() error {
	if s.cfg.Dir == "" {
		return nil
	}
	b, err := os.ReadFile(filepath.Join(s.cfg.Dir, "service", journalName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("service journal: %w", err)
	}
	if len(b) > 0 && b[len(b)-1] != '\n' {
		s.jmu.Lock()
		err = s.appendJournalLocked([]byte{'\n'})
		s.jmu.Unlock()
		if err != nil {
			return fmt.Errorf("service journal: %w", err)
		}
	}
	recs, skipped := replayJournal(b)
	for _, n := range skipped {
		fmt.Fprintf(os.Stderr, "muontrapd: skipping malformed journal line %d\n", n)
	}
	for _, rec := range recs {
		s.jobs[rec.ID] = s.newJob(rec)
		s.order = append(s.order, rec.ID)
	}
	return nil
}

// replayJournal derives the job table a journal describes: the last
// record per job ID, in submission order. Jobs the dead process left
// queued or running become interrupted — the crash window restart-resume
// exists for — and jobs an expired drain timeout journaled as interrupted
// stay so. It also returns the (1-based) numbers of the non-empty lines
// that are not a record of this version.
func replayJournal(b []byte) (recs []muontrap.Job, skipped []int) {
	last := make(map[string]muontrap.Job)
	for n := 1; len(b) > 0; n++ {
		var line []byte
		line, b, _ = bytes.Cut(b, []byte{'\n'})
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e jobEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Version != journalVersion || e.Job.ID == "" {
			skipped = append(skipped, n)
			continue
		}
		last[e.Job.ID] = e.Job
	}
	recs = make([]muontrap.Job, 0, len(last))
	for _, rec := range last {
		switch rec.State {
		case muontrap.JobQueued, muontrap.JobRunning:
			// The interrupted state is normally derived: the journal keeps
			// saying queued/running (what death left behind), and every
			// restart re-derives the same picture.
			rec.State = muontrap.JobInterrupted
			rec.Done = 0
		case muontrap.JobInterrupted:
			// Journaled explicitly by an expired drain timeout
			// (Shutdown): the previous daemon abandoned the run on its
			// way out. Same resumable picture.
			rec.Done = 0
		}
		recs = append(recs, rec)
	}
	// Recover submission order from the journaled timestamps: RFC 3339
	// UTC strings sort chronologically; ties fall back to ID order,
	// keeping the listing deterministic.
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].SubmittedAt != recs[b].SubmittedAt {
			return recs[a].SubmittedAt < recs[b].SubmittedAt
		}
		return recs[a].ID < recs[b].ID
	})
	return recs, skipped
}
