// Package stats provides the summary arithmetic used by the evaluation
// harness: geometric means and normalised-execution-time tables in the
// style of the paper's figures.
//
// Key types:
//
//   - Table / Series: the data behind one paper figure — workloads on the
//     x-axis, one or more named series of per-workload values, rendered by
//     String with a trailing geomean row.
//   - Geomean: geometric mean; it panics on non-positive input because a
//     normalised execution time can never be <= 0.
//   - Counter: one row of a simulator component's counter table (key,
//     unit, meaning, the configuration that adds it); CoreKey renders a
//     per-core counter's key, "core<i>.<key>".
//
// Invariants:
//
//   - Rendering is deterministic: tables print in their construction
//     order, so figure output is directly diffable across runs (the disk
//     cache's re-emitted rows are byte-identical to freshly simulated
//     ones).
package stats
