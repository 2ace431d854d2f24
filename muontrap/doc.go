// Package muontrap is the public API of the MuonTrap reproduction: a
// cycle-level multicore simulator implementing the speculative filter
// caches of Ainsworth & Jones, "MuonTrap: Preventing Cross-Domain
// Spectre-Like Attacks by Capturing Speculative State" (ISCA 2020), plus
// the InvisiSpec and STT comparison defenses, the paper's six attacks,
// and the synthetic SPEC CPU2006 / Parsec workloads the evaluation runs.
//
// Quick start:
//
//	r := muontrap.NewRunner()
//	res, err := r.Run(context.Background(),
//		muontrap.RunSpec{Workload: "povray", Scheme: "muontrap"})
//	fmt.Println(res.Cycles, res.IPC())
//
// Key entry points:
//
//   - Runner is the experiment service. Construct one with functional
//     options — WithWorkers (pool size), WithCacheDir (disk-backed result
//     cache), WithWarmup (snapshot fast-forward), WithProgress (streamed
//     results), WithScale/WithMaxCycles (sizing defaults) — then use
//     Runner.Run for one simulation, Runner.Sweep for a declarative
//     (workloads × schemes × scales) matrix over the worker pool, and
//     Runner.Figure to regenerate a paper figure ("fig3".."fig9"). All
//     three honor context cancellation mid-simulation.
//   - Workload, Scheme, FigureID and AttackName are typed, validated
//     identifiers with Parse* constructors; unknown names yield errors
//     wrapping ErrUnknownWorkload / ErrUnknownScheme / ErrUnknownFigure /
//     ErrUnknownAttack (test with errors.Is). Workloads(), Schemes(),
//     FigureIDs(), AttackNames() and SchemeDescriptions() enumerate them;
//     list output is sorted and duplicate-free, so help text and golden
//     output are deterministic.
//   - Sweep.Resolve and Sweep.Cells decide what a sweep declaration
//     means: Resolve makes every default explicit (the empty scheme is
//     the insecure baseline, empty Scales the default scale, a zero
//     MaxCycles the default bound), and Cells validates the resolved
//     sweep and lists its one-cell sweeps in declaration order. The
//     Runner, the experiment daemon and the fleet coordinator all read a
//     sweep through them.
//   - Job and JobState are the experiment daemon's wire types: cmd/
//     muontrapd serves Runner.Sweep over HTTP (submit / stream / cancel /
//     resume / fetch-by-cache-key), and muontrap/client drives it with
//     the same call shapes as Runner. See docs/API.md for the protocol.
//   - Attack replays one of the paper's six attacks under a scheme and
//     reports whether the secret leaked.
//   - TableOne renders the experimental setup from the live
//     configuration; NewSystem builds the underlying machine for advanced
//     scenarios.
//
// # Runs, sweeps and figures
//
//	r := muontrap.NewRunner(
//		muontrap.WithWorkers(4),
//		muontrap.WithCacheDir(dir),
//		muontrap.WithWarmup(100_000),
//		muontrap.WithScale(0.15),
//	)
//	rr, err := r.Run(ctx, muontrap.RunSpec{Workload: "povray", Scheme: "muontrap"})
//	tbl, err := r.Figure(ctx, muontrap.Fig4)
//
// and a hand-rolled loop over Run becomes a declarative sweep:
//
//	sr, err := r.Sweep(ctx, muontrap.Sweep{
//		Workloads: muontrap.Workloads(),
//		Schemes:   []muontrap.Scheme{"insecure", "muontrap"},
//	})
//
// Runner.Run is a fresh, unmemoized simulation; Runner.Sweep and
// Runner.Figure deduplicate identical cells in-process and, with
// WithCacheDir, across invocations.
//
// Invariants:
//
//   - Every simulation is deterministic: equal configuration, bit-equal
//     cycles, instruction counts and counters. The golden tests pin this,
//     and both caching layers and the snapshot fast-forward depend on it.
//   - Worker count never changes results: an N-worker sweep is
//     bit-identical to the sequential one (pinned by tests run under the
//     race detector). WithWorkers is the only host-parallelism setting:
//     a simulation, whatever its simulated core count, runs on one
//     goroutine, so workers beyond the host's CPUs only oversubscribe it.
//   - Cancellation is prompt (observed every 64 simulated cycles) and
//     surfaces as ctx.Err(); a cancelled run never poisons any cache.
//
// See ARCHITECTURE.md at the repository root for the layer map, the
// service layer's design and the checkpoint subsystem.
package muontrap
