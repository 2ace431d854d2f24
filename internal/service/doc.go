// Package service is the job plane behind cmd/muontrapd: the one
// implementation of the HTTP/JSON experiment service that non-Go clients
// drive with plain HTTP, whether the process is a lone daemon, a fleet
// worker or a fleet coordinator.
//
// A Server accepts declarative muontrap.Sweep submissions, validates
// them up front through muontrap.Sweep.Cells (400 + sentinel-coded
// errors, never a queued-then-failed job; the job's size is the cell
// count), and owns everything a job is from then on:
// the job table and state machine, admission, the journal, the
// content-keyed result store, the event ring each stream reads, and the
// ten /v1 handlers. How an admitted attempt's cells get computed is the
// one thing it delegates, to a one-method Backend: by default a bounded
// pool of Runners in this process — MaxJobs concurrent sweeps, Workers
// simulations each — and, on a coordinator, internal/fleet, which shards
// the sweep across worker daemons. A plane over a Backend puts no
// sweep-slot bound in front of it unless MaxJobs sets one (the backend's
// own capacity is the bound, and its own rule decides priority), which is
// the only behavioural difference between the two. Every completed matrix cell
// streams to subscribers as a Server-Sent Event; DELETE cancels the
// attempt's context, which a Backend must honour promptly — the default
// threads it all the way into the simulator's cycle loop.
//
// The server is hardened for shared, multi-tenant use:
//
//   - Admission control: MaxQueue bounds the daemon-wide submission
//     queue (503 "overloaded" at the bound), and Tenants enables
//     per-API-key authentication with per-tenant queued/running quotas
//     (429 "over_quota"). Shed responses carry Retry-After; /v1/healthz
//     exposes queue depth, running count and cumulative shed counters as
//     the readiness view.
//   - Priority classes: interactive jobs dispatch ahead of bulk jobs
//     and, when every slot is busy, preempt a running bulk sweep
//     losslessly — the victim is driven to a checkpointable boundary,
//     re-queued as resumable, and later continues from its checkpoint to
//     a byte-identical result. Priority never enters the cache key.
//   - Scalable SSE fan-out: progress frames live in one bounded ring
//     per job; subscribers read at their own cursor and are disconnected
//     (resumably, via Last-Event-ID) if they cannot accept a write
//     within streamWriteTimeout (30 s), so no consumer pins memory or stalls
//     the pool.
//   - Bounded drain: Shutdown(ctx) stops intake and waits for running
//     sweeps; when ctx expires first, still-running jobs are journaled
//     as interrupted — resumable by the next daemon — and reported.
//
// The sibling package faultinject wraps the server with deterministic
// drops, delays and injected 500s; its load test drives all of the above
// concurrently under the race detector.
//
// Results are content-keyed: a job's cache key hashes the matrix as
// muontrap.Sweep.Resolve makes it explicit, every option that can change
// the outcome, and the simulator build fingerprint. Identical submissions
// are served from the stored result without simulating, and GET
// /v1/results/{key} fetches a result with no job ID at all. The key is
// also a journaled job's identity: the journal records the job and
// nothing else, and a job whose recorded key is not the one this daemon
// computes for its sweep (other identity flags, or another build) refuses
// resume with 409 rather than file a result under the wrong key.
//
// Durability composes with the PR 4 checkpoint machinery rather than
// duplicating it. The server journals job lifecycle to one append-only
// log, Dir/service/journal.log: every transition appends one JSON record
// on a line of its own, and a restart replays the log, the last record
// per job winning (a line torn by a crash is skipped). Older builds kept
// one file per job under Dir/service/jobs; that directory is not read,
// since its jobs carry the old build's cache key and could not resume.
// The runners persist mid-run checkpoints into the same Dir at the
// configured cadence. Kill the daemon mid-sweep and restart it: the
// journal surfaces the job as "interrupted", and resuming it re-enters
// the queue with muontrap.WithResume, so each unfinished cell restores
// its latest mid-run checkpoint — keyed by run identity and binary
// fingerprint, not by host or process — and finishes bit-identical to an
// uninterrupted run. The e2e suite pins exactly that.
//
// The wire format is documented in docs/API.md; muontrap/client is the
// Go client.
package service
