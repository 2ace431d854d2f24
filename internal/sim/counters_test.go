package sim_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/defense"
	"repro/internal/figures"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/stats"
)

// counterTable is one of the four counter tables: the component that
// declares it, whether its keys are per core, and its rows.
type counterTable struct {
	layer   string
	perCore bool
	rows    []stats.Counter
}

func counterTables() []counterTable {
	h, p, c := memsys.HierarchyCounterTable(), memsys.PortCounterTable(), cpu.CounterTable()
	return []counterTable{
		{"sim.System", false, sim.SystemCounterTable()},
		{"memsys.Hierarchy", false, h[:]},
		{"cpu.Core", true, c[:]},
		{"memsys.Port", true, p[:]},
	}
}

// TestCounterTablesCoverTheCounterMap: a run's counter map holds exactly
// the keys the four tables declare for its configuration — every row whose
// When holds, once per core for the per-core tables — so no counter is
// rendered that no table declares, and no declared one goes missing. The
// tables themselves render no key twice and give every row a unit and a
// meaning.
func TestCounterTablesCoverTheCounterMap(t *testing.T) {
	seen := map[string]string{}
	for _, tbl := range counterTables() {
		for _, r := range tbl.rows {
			key := r.Key
			if tbl.perCore {
				key = stats.CoreKey(0, key)
			}
			if prev, dup := seen[key]; dup {
				t.Errorf("%s and %s both render %q", prev, tbl.layer, key)
			}
			seen[key] = tbl.layer
			if r.Unit == "" || r.Meaning == "" {
				t.Errorf("%s row %q lacks a unit or a meaning", tbl.layer, r.Key)
			}
		}
	}

	for _, tc := range []struct {
		kernel string
		sch    defense.Scheme
	}{
		{"hmmer", defense.Insecure()},
		{"hmmer", defense.MuonTrap()}, // L0s and the filter TLB present
		{"canneal", defense.MuonTrap()},
	} {
		t.Run(tc.kernel+"/"+tc.sch.Name, func(t *testing.T) {
			s := figures.BuildSystem(simtest.MustSpec(t, tc.kernel), tc.sch, 0.02)
			res, err := s.RunUntilHalt(50_000_000)
			if err != nil {
				t.Fatal(err)
			}
			present := map[string]bool{"": true, "Mode.L0Data": tc.sch.Mode.L0Data, "Mode.L0Inst": tc.sch.Mode.L0Inst}
			var want []string
			for _, tbl := range counterTables() {
				for _, r := range tbl.rows {
					on, known := present[r.When]
					if !known {
						t.Fatalf("%s row %q: unknown configuration %q", tbl.layer, r.Key, r.When)
					}
					switch {
					case !on:
					case tbl.perCore:
						for ci := range s.Cores {
							want = append(want, stats.CoreKey(ci, r.Key))
						}
					default:
						want = append(want, r.Key)
					}
				}
			}
			var got []string
			for k := range res.Counters {
				got = append(got, k)
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%d cores: counter map keys\n%v\nwant the tables' keys\n%v", len(s.Cores), got, want)
			}
		})
	}
}

// countersDoc renders the "Simulator counters" table of
// docs/OBSERVABILITY.md from the four counter tables.
func countersDoc() string {
	var b strings.Builder
	b.WriteString("| Layer | Key | Unit | Meaning | Present when |\n|---|---|---|---|---|\n")
	for _, tbl := range counterTables() {
		for _, r := range tbl.rows {
			key := r.Key
			if tbl.perCore {
				key = "core<N>." + key
			}
			when := "always"
			if r.When != "" {
				when = "`" + r.When + "`"
			}
			fmt.Fprintf(&b, "| `%s` | `%s` | %s | %s | %s |\n", tbl.layer, key, r.Unit, r.Meaning, when)
		}
	}
	return b.String()
}

// TestCounterTablesMatchTheDocs: the counter table in
// docs/OBSERVABILITY.md is the one the four tables render, so the docs
// name every counter a run reports, and nothing else.
func TestCounterTablesMatchTheDocs(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- counters:begin -->\n", "<!-- counters:end -->"
	doc := string(raw)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("docs/OBSERVABILITY.md has no %q ... %q block", begin, end)
	}
	if got, want := doc[i+len(begin):j], countersDoc(); got != want {
		t.Fatalf("docs/OBSERVABILITY.md counter table is stale; replace the block with:\n%s", want)
	}
}

// TestWarmupCountsNothing: the functional warm-up deposits a footprint in
// the TLBs and caches but counts nothing, since every counter belongs to
// the measured region; only warmup.insts records it. canneal's four cores
// take lines from each other's L1Ds during its warm-up (remote
// downgrades), mcf's dirty lines leave the L2 (writebacks), and the
// sandbox kernel's filter flushes are domain flushes in a measured run.
func TestWarmupCountsNothing(t *testing.T) {
	b := isa.NewBuilder("sandbox")
	for range 5 {
		b.FlushSF()
	}
	b.Halt()
	sandbox := b.MustBuild()
	for _, name := range []string{"canneal", "mcf", "sandbox"} {
		var s *sim.System
		if name == "sandbox" {
			s = sim.New(sim.DefaultConfig(1))
			s.RunOn(0, s.NewProcess(sandbox), 0)
		} else {
			s = figures.BuildSystem(simtest.MustSpec(t, name), defense.Insecure(), 0.05)
		}
		n := uint64(s.Warmup(200000))
		for k, v := range s.Counters() {
			if k == "warmup.insts" && v != n || k != "warmup.insts" && v != 0 {
				t.Errorf("%s: after a warm-up of %d insts, %s = %d", name, n, k, v)
			}
		}
		s.Release()
	}
}
