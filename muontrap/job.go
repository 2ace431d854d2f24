package muontrap

import (
	"errors"
	"fmt"
)

// ErrUnknownJob is the sentinel behind the experiment service's 404: a
// job identifier that names no submitted job. The HTTP client
// (muontrap/client) maps the service's "unknown_job" error code back to
// this sentinel, so errors.Is works identically against a remote daemon
// and an in-process lookup.
var ErrUnknownJob = errors.New("muontrap: unknown job")

// JobState is one node of the experiment service's job state machine.
//
//	queued ──► running ──► done | failed | cancelled
//	   │                         ▲
//	   └────────► cancelled      │ resume
//	queued|running ──(server killed)──► interrupted ─┘
//
// A job found queued or running in the service journal at daemon startup
// was interrupted by the previous process's death; resuming it re-enters
// the queue with the PR's checkpoint-resume path enabled, so the
// simulation continues from its latest persisted mid-run checkpoint
// rather than from cold.
type JobState string

// The job states, as serialized on the wire and in the service journal.
const (
	// JobQueued: accepted and validated, waiting for a runner slot.
	JobQueued JobState = "queued"
	// JobRunning: executing on the daemon's bounded runner pool.
	JobRunning JobState = "running"
	// JobDone: completed; the result is fetchable by job ID or cache key.
	JobDone JobState = "done"
	// JobFailed: the sweep returned a non-cancellation error (recorded in
	// Job.Error). Failed jobs may be resubmitted via resume.
	JobFailed JobState = "failed"
	// JobCancelled: aborted by DELETE; the in-flight simulation observed
	// context cancellation inside its cycle loop. Resumable.
	JobCancelled JobState = "cancelled"
	// JobInterrupted: the daemon died (crash, kill, restart) while the job
	// was queued or running. Assigned at journal load; persisted only when
	// a shutdown's drain timeout abandons a running job.
	// Resumable; with mid-run checkpointing configured, the resumed run
	// restores the latest checkpoint instead of re-simulating.
	JobInterrupted JobState = "interrupted"
)

// Terminal reports whether the state is an end state of the current
// attempt (done, failed, cancelled or interrupted). All terminal states
// except JobDone can be re-entered into the queue with resume.
func (s JobState) Terminal() bool {
	switch s {
	case JobDone, JobFailed, JobCancelled, JobInterrupted:
		return true
	}
	return false
}

// Priority is a job's scheduling class on the experiment service.
// Interactive jobs are dispatched ahead of bulk jobs and, when every
// runner slot is busy, preempt a running bulk job: the bulk sweep is
// driven to its next checkpointable boundary, re-queued as resumable,
// and continues — to a byte-identical result — once a slot frees.
type Priority string

// The scheduling classes, as serialized on the wire and in the journal.
const (
	// PriorityInteractive: latency-sensitive work (figure re-emits,
	// notebook cells). Dispatched first; may preempt bulk jobs.
	PriorityInteractive Priority = "interactive"
	// PriorityBulk: throughput work (full evaluation-matrix sweeps).
	// The default; preemptible by interactive jobs.
	PriorityBulk Priority = "bulk"
)

// ParsePriority validates a wire priority string. The empty string is
// the documented alias for the bulk default.
func ParsePriority(s string) (Priority, error) {
	switch Priority(s) {
	case "", PriorityBulk:
		return PriorityBulk, nil
	case PriorityInteractive:
		return PriorityInteractive, nil
	}
	return "", fmt.Errorf("muontrap: unknown priority %q (want %q or %q)", s, PriorityInteractive, PriorityBulk)
}

// Catalog is the experiment service's identifier-discovery payload
// (GET /v1/catalog): everything a client needs to construct a valid
// sweep without compiling the simulator's registries in. Both the
// daemon (internal/service) and muontrap/client speak exactly this
// shape.
type Catalog struct {
	Workloads []Workload        `json:"workloads"`
	Schemes   []Scheme          `json:"schemes"`
	SchemeDoc map[Scheme]string `json:"scheme_descriptions"`
	Figures   []FigureID        `json:"figures"`
	// Attacks is the security-matrix scenario corpus, accepted in
	// Sweep.Attacks.
	Attacks []AttackName `json:"attacks"`
}

// Job is one submitted sweep's lifecycle record, as the experiment
// service reports it (and journals it across daemon restarts). It is the
// payload of the service's job endpoints and of the terminal SSE event.
type Job struct {
	// ID is the service-assigned job identifier ("job-" + 16 hex digits).
	ID string `json:"id"`
	// State is the job's position in the state machine.
	State JobState `json:"state"`
	// Sweep is the submitted experiment matrix, verbatim.
	Sweep Sweep `json:"sweep"`
	// CacheKey is the content key of the job's result: a hash of the
	// resolved matrix, every option that can change the outcome, and the
	// simulator build fingerprint. Identical submissions share it; a
	// completed result is fetchable by it without knowing any job ID.
	CacheKey string `json:"cache_key"`
	// Done and Total count completed and declared matrix cells. Progress
	// counts are live server memory: after a daemon restart they restart
	// from zero with the resumed attempt.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Priority is the job's scheduling class ("interactive" or "bulk",
	// defaulting to bulk). It never enters the cache key: priority
	// affects when a result is computed, not what it is.
	Priority Priority `json:"priority,omitempty"`
	// Tenant names the API key the job was submitted under (the tenant
	// name, never the key itself), when the daemon runs with tenant auth
	// enabled. Quota accounting and cancel/resume ownership checks are
	// keyed on it.
	Tenant string `json:"tenant,omitempty"`
	// Error carries the failure message when State is "failed".
	Error string `json:"error,omitempty"`
	// SubmittedAt and FinishedAt are RFC 3339 wall-clock timestamps (the
	// submission and the latest terminal transition; FinishedAt is empty
	// until then). They are informational only: no cache key, journal
	// decision or result depends on them.
	SubmittedAt string `json:"submitted_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
}
