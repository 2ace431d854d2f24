package figures

import (
	"context"
	"strings"
	"testing"

	"repro/internal/defense"
	"repro/internal/workload"
)

// tinyOptions keeps harness tests fast.
func tinyOptions() Options {
	return Options{Scale: 0.02, MaxCycles: 20_000_000}
}

func TestRunOneProducesResult(t *testing.T) {
	spec, _ := workload.ByName("hmmer")
	res, err := RunOne(context.Background(), spec, defense.MuonTrap(), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Committed == 0 {
		t.Fatalf("empty result %+v", res)
	}
}

func TestTableOneContainsTableParameters(t *testing.T) {
	out := TableOne()
	for _, want := range []string{
		"8-wide", "192-entry ROB", "64-entry IQ", "32-entry LQ",
		"6 int ALUs", "4 FP ALUs", "2 mult/div",
		"32KiB", "64KiB", "2048B, 4-way", "2MiB, 8-way", "4 cores",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig7SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration")
	}
	tbl, err := Fig7(context.Background(), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Workloads) != 26 {
		t.Fatalf("fig7 workloads = %d", len(tbl.Workloads))
	}
	vals := tbl.Series[0].Values
	// The store-stream group must dominate the hot-set group, as in the
	// paper (bwaves/gcc/lbm/libquantum/mcf/zeusmp high; povray low).
	if vals["lbm"] <= vals["povray"] {
		t.Fatalf("fig7 shape wrong: lbm %.2f <= povray %.2f", vals["lbm"], vals["povray"])
	}
	for w, v := range vals {
		if v < 0 || v > 1 {
			t.Fatalf("%s rate %v out of range", w, v)
		}
	}
}

func TestComparisonFigureTinySubset(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration")
	}
	specs := []workload.Spec{}
	for _, n := range []string{"hmmer", "povray"} {
		s, _ := workload.ByName(n)
		specs = append(specs, s)
	}
	tbl, err := schemeFigure(context.Background(), "tiny", specs, defense.Comparison(), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series) != 5 {
		t.Fatalf("series = %d, want 5", len(tbl.Series))
	}
	for _, s := range tbl.Series {
		for w, v := range s.Values {
			if v <= 0 || v > 20 {
				t.Fatalf("%s/%s normalised time %v implausible", s.Name, w, v)
			}
		}
	}
}
