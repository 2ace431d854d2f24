// Package figures hosts the experiment executor and regenerates every
// table and figure of the paper's evaluation section (Table 1, Figures
// 3-9) on the simulated machine. Each figure function compiles its
// (workload x scheme) matrix to []Job and hands it to the shared
// Executor — the same one the public muontrap.Runner drives — then
// returns a stats.Table whose rows mirror the paper's plots: normalised
// execution time against the unprotected baseline, or (Figure 7) the
// store broadcast rate. Every individual simulation is single-threaded
// and deterministic; the executor only decides which cells run when.
//
// Key types:
//
//   - Job / Outcome / Executor: one matrix cell, its result, and the
//     bounded worker pool that runs cells with fail-fast error
//     propagation and context cancellation (observed both between jobs
//     and inside the simulator's cycle loop). Worker count never changes
//     results — pinned by tests comparing parallel and sequential
//     renderings byte-for-byte.
//   - Options: experiment size (Scale, MaxCycles), Parallelism — the
//     executor's worker count and the only host-parallelism setting —
//     plus the two scale levers layered under the figures: WarmupInsts
//     (snapshot fast-forward) and CacheDir (disk-backed result cache).
//   - runKey: the full identity of one deterministic run — workload,
//     scheme, scale, cycle bound, filter-cache geometry, warm-up depth and
//     warm-snapshot content hash. Everything that can change a run's
//     outcome is in the key. A run that ends in a context error is
//     dropped from the memoization map, so cancellation never poisons
//     any caching layer.
//
// Caching layers, outermost first:
//
//  1. In-process singleflight (cachedRun): duplicate matrix cells — Fig
//     5/6 re-run Fig 4's baseline, Fig 7 re-runs Fig 3's MuonTrap column —
//     simulate once per process.
//  2. Disk result cache (CacheDir): results keyed by runKey plus the
//     simulator build fingerprint, so re-invocations re-emit previously
//     computed rows without simulating. A rebuild of the binary
//     invalidates the cache rather than serving stale timing.
//  3. Warm snapshots (WarmupInsts > 0): per workload, the warm-up region
//     is executed once — architecturally, on an unprotected machine — and
//     checkpointed; every per-scheme run of that workload forks from the
//     restored snapshot. Snapshots are memoized in-process and in a
//     content-addressed store under CacheDir.
//
// Invariants:
//
//   - Caching never changes results: a memoized, disk-loaded or
//     snapshot-forked run is bit-identical (cycles, instructions, every
//     counter) to the cold run it stands for; the snapshot tests enforce
//     this for all six schemes of a figure row.
//   - RunOne is not memoized: benchmarks and API users always get a fresh
//     simulation.
package figures
