// Package fleet shards one declarative Sweep across a fleet of muontrapd
// workers and merges the results byte-identically to a single-machine
// run.
//
// A Coordinator does not implement the job API: it is the
// service.Backend of an internal/service Server it builds over itself —
// the same job plane a lone daemon is, so validation, the error
// envelope, admission and tenants, the journal, the result store, SSE
// and every /v1 handler exist once, and muontrap/client drives a fleet
// and a daemon with identical code. This package holds what only a fleet
// has. Run splits an admitted sweep into the cells muontrap.Sweep.Cells
// lists against the coordinator's defaults — single-cell jobs that carry
// the resolved scale and cycle bound, so a worker runs exactly the cell
// the coordinator keyed — dispatches them to registered workers
// (registration and heartbeat over HTTP, see Agent) least-loaded and
// interactive-first,
// follows each on the worker's event stream, steals cells from
// stragglers, and — when a worker dies mid-cell — re-dispatches the
// interrupted cell to another machine with checkpoint-resume enabled.
// The migrated run picks up from the dead worker's latest mid-run
// checkpoint, which is network-reachable because every worker mirrors
// its checkpoint chains into the coordinator's HTTP checkpoint store
// (checkpoint.Mirror over checkpoint.HTTPStore, same keying as the local
// store).
//
// Merging is idempotent and declaration-ordered: each cell's result
// lands under its cache key exactly once (a duplicate completion — the
// steal winner and the original both finishing — is counted and
// discarded, never merged twice), and the assembled SweepResult lists
// cells in declaration order regardless of which machine finished which
// cell when. The fleet's answer is byte-identical to Runner.Sweep's.
//
// There is no shard-map journal. A cell is a single-cell sweep with its
// own content key, so a merged cell's result goes into the plane's
// result store under that key before its progress frame is published,
// and every Run — fresh, resumed, or re-queued by New after a coordinator
// restart — first collects the cells already stored and dispatches only
// the rest. A restarted coordinator therefore finishes a half-done sweep
// without re-running a completed cell, from the same journal entry a
// daemon writes.
package fleet
