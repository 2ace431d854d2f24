package figures

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"testing"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/workload"
)

// The "recycled ≡ fresh" oracle. A cell's machine is built on tables the
// previous cell handed back (sim.System.Release, through forkOrRun); this
// suite pins that no simulated statistic can tell. The reference comes
// from a child process in which Release is never called and no snapshot
// is restored, so every table there is freshly made.

// oracleCell is one cell of the oracle: a figure cell (Scheme set) or a
// Fig 5 sweep cell (L0DSize set: a fully associative data filter cache of
// that many bytes), optionally forked from a warm snapshot. Only an A cell
// may be one whose result is not compared: an attack trial (Attack names
// the scenario, run under Scheme), or a figure cell cancelled mid-run
// (CancelAt: its context is cancelled at the first checkpoint boundary of
// that cadence, before the drain, so the machine is released with its
// pipeline full and its events pending).
type oracleCell struct {
	Work     string
	Scheme   string
	L0DSize  uint64
	Warmup   int
	Attack   string
	CancelAt event.Cycle
}

func (c oracleCell) String() string {
	switch {
	case c.Attack != "":
		return fmt.Sprintf("attack %s/%s", c.Attack, c.Scheme)
	case c.CancelAt > 0:
		return fmt.Sprintf("%s/%s/cancelled@%d", c.Work, c.Scheme, c.CancelAt)
	case c.L0DSize > 0:
		return fmt.Sprintf("%s/l0d=%dB/warm=%d", c.Work, c.L0DSize, c.Warmup)
	}
	return fmt.Sprintf("%s/%s/warm=%d", c.Work, c.Scheme, c.Warmup)
}

func oracleOptions() Options {
	return Options{Scale: 0.03, MaxCycles: 20_000_000}
}

func (c oracleCell) spec(tb testing.TB) workload.Spec { return simtest.MustSpec(tb, c.Work) }

func (c oracleCell) scheme(tb testing.TB) defense.Scheme {
	sch, err := defense.ByName(c.Scheme)
	if err != nil {
		tb.Fatal(err)
	}
	return sch
}

// job is the cell as the production path runs it: built, forked, run and
// released by forkOrRun.
func (c oracleCell) job(tb testing.TB) Job {
	opt := oracleOptions()
	opt.WarmupInsts = c.Warmup
	if c.Attack != "" {
		sc, ok := attack.ScenarioByName(c.Attack)
		if !ok {
			tb.Fatalf("no attack scenario %q", c.Attack)
		}
		return AttackJob(sc, c.scheme(tb), opt)
	}
	spec := c.spec(tb)
	if c.CancelAt > 0 {
		// Its own subject keeps its empty result out of the memo slot of
		// the cell it would otherwise be keyed as.
		j := Job{Spec: spec, Scheme: c.scheme(tb), Opt: opt, Series: c.Scheme, Work: c.String(), subject: c.String()}
		j.Custom = func(ctx context.Context) (sim.RunResult, error) {
			// The machine runs its row's program, as a standard cell does:
			// the one a later cell of the row will run too, when one holds it.
			row := acquireProgram(Job{Spec: spec, Opt: opt})
			defer row.release()
			return sim.RunResult{}, c.cancelMidRun(ctx, assemble(figureConfig(spec, j.Scheme), row.program()))
		}
		return j
	}
	if c.L0DSize == 0 {
		return Job{Spec: spec, Scheme: c.scheme(tb), Opt: opt, Series: c.Scheme, Work: c.String()}
	}
	return Job{Spec: spec, Scheme: sweepScheme(), Opt: opt, Series: "sweep", Work: c.String(),
		l0dSize: c.L0DSize, l0dAssoc: int(c.L0DSize / 64)}
}

func (c oracleCell) run(tb testing.TB) sim.RunResult {
	tb.Helper()
	j := c.job(tb)
	j.row = acquireProgram(j)
	defer j.row.release()
	key, err := newRunKey(j)
	if err != nil {
		tb.Fatalf("%s: %v", c, err)
	}
	res, err := j.run(context.Background(), key)
	if err != nil {
		tb.Fatalf("%s: %v", c, err)
	}
	return res
}

// cancelMidRun runs sys until its context is cancelled at the first
// checkpoint boundary, then releases it, and reports an error unless the
// run ended cancelled with events pending.
func (c oracleCell) cancelMidRun(ctx context.Context, sys *sim.System) error {
	defer sys.Release()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pending := 0
	sys.OnCheckpointSample = func(n int) { pending = n; cancel() }
	_, err := sys.RunUntilHaltCkpt(ctx, oracleOptions().MaxCycles, c.CancelAt, nil)
	if !errors.Is(err, context.Canceled) || pending == 0 {
		return fmt.Errorf("%s: run ended with %v and %d events pending at the cancel, want it cancelled with some", c, err, pending)
	}
	return nil
}

// runFresh is the cell's definition without the machinery under test: the
// same machine on a program of its own, warmed in place (what a snapshot
// fork must equal, see TestSnapshotForkMatchesColdRun), run, and left to
// the collector.
func (c oracleCell) runFresh(tb testing.TB) sim.RunResult {
	tb.Helper()
	opt := oracleOptions()
	j := c.job(tb)
	sys := assemble(j.config(), workload.Build(j.Spec, opt.Scale))
	if n := sys.Warmup(c.Warmup); n != c.Warmup {
		tb.Fatalf("%s: warm-up executed %d insts, want %d", c, n, c.Warmup)
	}
	res, err := sys.RunUntilHalt(opt.MaxCycles)
	if err != nil {
		tb.Fatalf("%s: %v", c, err)
	}
	return res
}

// oraclePairs lists (A, B): A runs first and dirties every table — the
// 16 MiB mcf kernel for the one-core machines, canneal with the largest
// Fig 5 filter cache for the four-core ones — then B runs on what A
// released. The pairs cover a scheme change, a workload change, a
// filter-cache geometry change in both directions and a warm fork, and
// A cells that release a dirty pipeline: one cancelled mid-run with
// events pending and an InvisiSpec exposure pinning a window slot, one
// cancelled mid-run on the shared program B then runs (the same row),
// and attack trials, whose victim is still running when the trial ends.
var oraclePairs = [][2]oracleCell{
	{{Work: "mcf", Scheme: "muontrap"}, {Work: "hmmer", Scheme: "insecure"}},
	{{Work: "mcf", Scheme: "insecure"}, {Work: "hmmer", Scheme: "muontrap"}},
	{{Work: "mcf", Scheme: "stt-future"}, {Work: "bzip2", Scheme: "safebet"}},
	{{Work: "canneal", L0DSize: 4096}, {Work: "swaptions", L0DSize: 512}},
	{{Work: "canneal", L0DSize: 256}, {Work: "swaptions", Scheme: "muontrap"}},
	{{Work: "mcf", Scheme: "muontrap", Warmup: 3000}, {Work: "hmmer", Scheme: "muontrap", Warmup: 3000}},
	{{Work: "canneal", L0DSize: 4096, Warmup: 3000}, {Work: "swaptions", L0DSize: 1024, Warmup: 3000}},
	// At cycle 7 000 gcc's window holds 112 instructions, one of them
	// pinned by an exposure in flight (counted when the pair was chosen).
	{{Work: "gcc", Scheme: "invisispec-future", CancelAt: 7000}, {Work: "hmmer", Scheme: "invisispec-future"}},
	{{Work: "gcc", Scheme: "muontrap", CancelAt: 7000}, {Work: "gcc", Scheme: "invisispec-future"}},
	{{Attack: "spectre", Scheme: "invisispec-spectre"}, {Work: "bzip2", Scheme: "muontrap"}},
	{{Attack: "inclusion", Scheme: "insecure"}, {Work: "hmmer", Scheme: "stt-spectre"}},
}

const freshCellsEnv = "FIGURES_FRESH_CELLS"
const freshCellsMark = "fresh-cells: "

// TestFreshCellsChild is the reference process of the oracle: it runs
// every B cell in a process that never releases a machine and prints the
// results. It does nothing unless TestRecycledCellsMatchFresh started it.
func TestFreshCellsChild(t *testing.T) {
	if os.Getenv(freshCellsEnv) == "" {
		t.Skip("child of TestRecycledCellsMatchFresh")
	}
	out := make([]sim.RunResult, len(oraclePairs))
	for i, pair := range oraclePairs {
		out[i] = pair[1].runFresh(t)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("%s%s\n", freshCellsMark, b)
}

func freshResults(t *testing.T) []sim.RunResult {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^TestFreshCellsChild$", "-test.count=1")
	cmd.Env = append(os.Environ(), freshCellsEnv+"=1")
	raw, err := cmd.Output()
	if err != nil {
		t.Fatalf("reference process: %v\n%s", err, raw)
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(freshCellsMark)); ok {
			var out []sim.RunResult
			if err := json.Unmarshal(rest, &out); err != nil {
				t.Fatal(err)
			}
			if len(out) != len(oraclePairs) {
				t.Fatalf("reference process reported %d cells, want %d", len(out), len(oraclePairs))
			}
			return out
		}
	}
	t.Fatalf("reference process printed no results:\n%s", raw)
	return nil
}

// TestRecycledCellsMatchFresh: cell B, run through the production path on
// the tables cell A dirtied and released (and on A's program when they
// are one row), reports the cycles, committed count and full counter map
// B reports in a process where nothing was ever released or shared — one
// pair at a time, then all cells at once through a two-worker Executor
// (run with -race -count=10: the recycler and the rows' programs are the
// state the workers share).
func TestRecycledCellsMatchFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer ResetRunCache()
	ResetRunCache()
	fresh := freshResults(t)

	for i, pair := range oraclePairs {
		// B's row is held across A, as a sweep holds it, so an A of the
		// same row runs on the program B then runs.
		held := acquireProgram(pair[1].job(t))
		pair[0].run(t)
		resultsEqual(t, pair[1].String()+" after "+pair[0].String(), fresh[i], pair[1].run(t))
		held.release()
	}

	var jobs []Job
	for _, pair := range oraclePairs {
		jobs = append(jobs, pair[0].job(t), pair[1].job(t))
	}
	ex := Executor{Workers: 2}
	outs, err := ex.Execute(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pair := range oraclePairs {
		resultsEqual(t, pair[1].String()+" in a 2-worker pass", fresh[i], outs[2*i+1].Res)
	}
}
