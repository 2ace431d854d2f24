package muontrap

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/defense"
	"repro/internal/figures"
)

// The security matrix: the full attack-scenario corpus run under the
// compared schemes, reported as a scheme × scenario verdict table. This is
// its one type and its one assembler, SecurityMatrixFromSweep: the attack
// cells run as sweep cells (internal/figures compiles each to an executor
// Job), and the table is assembled from the sweep result however the sweep
// ran. The matrix is a golden artifact — its rendered form is pinned
// byte-for-byte by the regression suite and is identical whether the cells
// ran in-process, from the disk cache, or sharded across a fleet.

// SecuritySchemes returns the matrix's scheme columns in table order: the
// insecure baseline, the paper's cumulative protection stages, and
// SafeBet.
func SecuritySchemes() []Scheme {
	var out []Scheme
	for _, s := range defense.SecurityComparison() {
		out = append(out, Scheme(s.Name))
	}
	return out
}

// SecurityMatrixResult is the scheme × scenario verdict table.
type SecurityMatrixResult struct {
	// Schemes is the column order.
	Schemes []Scheme `json:"schemes"`
	// Rows holds one attack scenario per row, in registry (sorted) order.
	Rows []SecurityRow `json:"rows"`
}

// SecurityRow is one scenario's verdict under every scheme, aligned with
// the matrix's Schemes.
type SecurityRow struct {
	Attack  AttackName     `json:"attack"`
	Results []AttackResult `json:"results"`
}

// Render prints the matrix as a fixed-width table, each cell
// "leak(value,signal)" when the receiver recovered the secret, else
// "block(signal)". The output is the golden artifact the regression suite
// pins byte-for-byte and compares across in-process, disk-cached and
// fleet-sharded execution, so it depends only on the verdicts, never on
// timing or environment.
func (m *SecurityMatrixResult) Render() string {
	var b strings.Builder
	b.WriteString("Security matrix: scenario (rows) vs scheme (columns); leak(value,signal) or block(signal)\n")
	fmt.Fprintf(&b, "%-16s", "scenario")
	for _, s := range m.Schemes {
		fmt.Fprintf(&b, " %-15s", s)
	}
	b.WriteByte('\n')
	for _, row := range m.Rows {
		fmt.Fprintf(&b, "%-16s", row.Attack)
		for _, r := range row.Results {
			v := fmt.Sprintf("block(%.3f)", r.Signal)
			if r.Succeeded {
				v = fmt.Sprintf("leak(%d,%.3f)", r.Leaked, r.Signal)
			}
			fmt.Fprintf(&b, " %-15s", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// AttackVerdict decodes the attack result an attack cell carries in its
// counters. It reports false for workload cells.
func (r RunResult) AttackVerdict() (AttackResult, bool) {
	if r.Attack == "" {
		return AttackResult{}, false
	}
	return figures.DecodeAttackCounters(string(r.Attack), r.Counters)
}

// SecurityMatrix runs the full corpus under every SecuritySchemes column
// through the runner's sweep path — sharing its memoization, disk cache
// and worker pool — and assembles the verdict table.
func (r *Runner) SecurityMatrix(ctx context.Context) (*SecurityMatrixResult, error) {
	sw := Sweep{Attacks: AttackNames(), Schemes: SecuritySchemes()}
	res, err := r.Sweep(ctx, sw)
	if err != nil {
		return nil, err
	}
	return SecurityMatrixFromSweep(sw, res)
}

// SecurityMatrixFromSweep assembles the verdict table from a completed
// sweep's attack cells — however the sweep ran (a local Runner, the
// experiment service, or a fleet coordinator), the same declaration yields
// the same table. The sweep must declare at least one attack and one
// scheme; workload cells in the result are ignored.
func SecurityMatrixFromSweep(sw Sweep, res *SweepResult) (*SecurityMatrixResult, error) {
	if len(sw.Attacks) == 0 || len(sw.Schemes) == 0 {
		return nil, fmt.Errorf("muontrap: sweep declares no attack cells")
	}
	cells := make(map[AttackName]map[Scheme]AttackResult)
	for _, run := range res.Runs {
		if run.Attack == "" {
			continue
		}
		v, ok := run.AttackVerdict()
		if !ok {
			return nil, fmt.Errorf("muontrap: attack cell %s/%s carries no verdict", run.Attack, run.Scheme)
		}
		if cells[run.Attack] == nil {
			cells[run.Attack] = make(map[Scheme]AttackResult)
		}
		cells[run.Attack][run.Scheme] = v
	}
	m := &SecurityMatrixResult{}
	for _, s := range sw.Schemes {
		s = s.orInsecure()
		if _, err := lookupScheme(s); err != nil {
			return nil, err
		}
		m.Schemes = append(m.Schemes, s)
	}
	for _, a := range sw.Attacks {
		row := SecurityRow{Attack: a}
		for _, s := range m.Schemes {
			v, ok := cells[a][s]
			if !ok {
				return nil, fmt.Errorf("muontrap: sweep result is missing attack cell %s/%s", a, s)
			}
			row.Results = append(row.Results, v)
		}
		m.Rows = append(m.Rows, row)
	}
	return m, nil
}
