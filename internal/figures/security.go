package figures

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/event"
	"repro/internal/sim"
)

// The security matrix: every scenario of the attack corpus run under every
// compared scheme, reported as leaked-bits-or-blocked with the receiver's
// signal strength. Attack cells compile to executor Jobs like figure cells
// do, so they share the worker pool, the in-process memoization, the disk
// cache and — through the muontrap.Sweep wire type — fleet sharding. The
// attack verdict rides inside sim.RunResult.Counters (the one payload every
// cache and wire layer already carries), encoded losslessly below.

// Counter keys carrying an attack verdict through RunResult.Counters.
const (
	attackCtrSecret  = "attack.secret"
	attackCtrLeaked  = "attack.leaked"
	attackCtrSuccess = "attack.succeeded"
	// attackCtrSignal holds math.Float64bits of the signal ratio, so the
	// float round-trips bit-exactly through every cache layer.
	attackCtrSignal  = "attack.signal_bits"
	attackCtrNumLats = "attack.latencies"
	attackCtrLat     = "attack.lat."
)

// encodeAttackResult packs an attack verdict into a RunResult.
func encodeAttackResult(r attack.Result) sim.RunResult {
	c := map[string]uint64{
		attackCtrSecret:  uint64(int64(r.Secret)),
		attackCtrLeaked:  uint64(int64(r.Leaked)),
		attackCtrSuccess: 0,
		attackCtrSignal:  math.Float64bits(r.Signal),
		attackCtrNumLats: uint64(len(r.Latencies)),
	}
	if r.Succeeded {
		c[attackCtrSuccess] = 1
	}
	for i, l := range r.Latencies {
		c[fmt.Sprintf("%s%d", attackCtrLat, i)] = uint64(l)
	}
	return sim.RunResult{Counters: c}
}

// DecodeAttackCounters unpacks an attack verdict encoded by an attack Job
// from a result's counter map. It reports false for maps that do not carry
// one (e.g. a workload cell's counters).
func DecodeAttackCounters(name string, c map[string]uint64) (attack.Result, bool) {
	n, ok := c[attackCtrNumLats]
	if !ok || n > 1<<16 {
		return attack.Result{}, false
	}
	r := attack.Result{
		Name:      name,
		Secret:    int(int64(c[attackCtrSecret])),
		Leaked:    int(int64(c[attackCtrLeaked])),
		Succeeded: c[attackCtrSuccess] == 1,
		Signal:    math.Float64frombits(c[attackCtrSignal]),
	}
	if n > 0 {
		r.Latencies = make([]event.Cycle, n)
		for i := range r.Latencies {
			l, ok := c[fmt.Sprintf("%s%d", attackCtrLat, i)]
			if !ok {
				return attack.Result{}, false
			}
			r.Latencies[i] = event.Cycle(l)
		}
	}
	return r, true
}

// AttackJob compiles one security-matrix cell — a scenario under a scheme
// — to an executor Job. The cell's cache identity is the scenario's full
// canonical encoding plus the scheme name (any spec change is a new
// experiment); sizing options that only apply to workload runs (scale,
// cycle bound, warm-up, checkpoint cadence) are cleared so attack cells
// cache under one key per (scenario, scheme, build).
func AttackJob(sc attack.Scenario, sch defense.Scheme, opt Options) Job {
	o := opt
	o.Scale, o.MaxCycles = 0, 0
	o.WarmupInsts, o.CheckpointEvery, o.Resume = 0, 0, false
	return Job{
		Scheme:  sch,
		Opt:     o,
		Series:  sch.Name,
		Work:    sc.Name,
		Attack:  sc.Name,
		subject: "attack:" + sc.Encode(),
		Custom: func(ctx context.Context) (sim.RunResult, error) {
			if err := ctx.Err(); err != nil {
				return sim.RunResult{}, err
			}
			return encodeAttackResult(attack.Run(sc, sch)), nil
		},
	}
}

// SecurityMatrixResult is the scheme × scenario verdict table.
type SecurityMatrixResult struct {
	// Schemes is the column order.
	Schemes []string
	// Rows holds one scenario per row, in the order the scenarios were
	// requested (the registry's order is sorted by name).
	Rows []SecurityRow
}

// SecurityRow is one scenario's verdict under every scheme, aligned with
// the matrix's Schemes.
type SecurityRow struct {
	Scenario string
	Results  []attack.Result
}

// SecurityVerdict renders one cell the way the matrix table does:
// "leak(value,signal)" when the receiver recovered the secret, else
// "block(signal)".
func SecurityVerdict(r attack.Result) string {
	if r.Succeeded {
		return fmt.Sprintf("leak(%d,%.3f)", r.Leaked, r.Signal)
	}
	return fmt.Sprintf("block(%.3f)", r.Signal)
}

// Render prints the matrix as a fixed-width table. The output is a golden
// artifact: it is pinned byte-for-byte by the security regression suite
// and compared across in-process, disk-cached and fleet-sharded
// execution, so it must depend only on the verdicts, never on timing or
// environment.
func (m *SecurityMatrixResult) Render() string {
	var b strings.Builder
	b.WriteString("Security matrix: scenario (rows) vs scheme (columns); leak(value,signal) or block(signal)\n")
	fmt.Fprintf(&b, "%-16s", "scenario")
	for _, s := range m.Schemes {
		fmt.Fprintf(&b, " %-15s", s)
	}
	b.WriteByte('\n')
	for _, row := range m.Rows {
		fmt.Fprintf(&b, "%-16s", row.Scenario)
		for _, r := range row.Results {
			fmt.Fprintf(&b, " %-15s", SecurityVerdict(r))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SecurityMatrix runs every scenario under every scheme through the shared
// executor and assembles the verdict table. Rows follow the scenarios'
// order, columns the schemes'; with the registry corpus and
// defense.SecurityComparison() this is the paper-plus-SafeBet matrix the
// golden suite pins.
func SecurityMatrix(ctx context.Context, schemes []defense.Scheme, scenarios []attack.Scenario, opt Options) (*SecurityMatrixResult, error) {
	jobs := make([]Job, 0, len(scenarios)*len(schemes))
	for _, sc := range scenarios {
		for _, sch := range schemes {
			jobs = append(jobs, AttackJob(sc, sch, opt))
		}
	}
	ex := Executor{Workers: opt.Parallelism}
	outs, err := ex.Execute(ctx, jobs)
	if err != nil {
		return nil, err
	}
	m := &SecurityMatrixResult{Schemes: make([]string, len(schemes))}
	for i, sch := range schemes {
		m.Schemes[i] = sch.Name
	}
	for i, sc := range scenarios {
		row := SecurityRow{Scenario: sc.Name, Results: make([]attack.Result, len(schemes))}
		for j := range schemes {
			o := outs[i*len(schemes)+j]
			r, ok := DecodeAttackCounters(sc.Name, o.Res.Counters)
			if !ok {
				return nil, fmt.Errorf("figures: cell %s/%s carries no attack verdict", o.Job.Series, o.Job.Work)
			}
			row.Results[j] = r
		}
		m.Rows = append(m.Rows, row)
	}
	return m, nil
}
