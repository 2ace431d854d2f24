package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomeanKnownValues(t *testing.T) {
	got := Geomean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("Geomean(1,4) = %v, want 2", got)
	}
	got = Geomean([]float64{2, 2, 2})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("Geomean(2,2,2) = %v, want 2", got)
	}
	if Geomean(nil) != 0 {
		t.Fatal("Geomean(nil) != 0")
	}
}

func TestGeomeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive input")
		}
	}()
	Geomean([]float64{1, 0})
}

// Property: geomean lies between min and max of its inputs.
func TestGeomeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			v = math.Abs(v)
			if v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) && v < 1e100 {
				xs = append(xs, v+1e-9)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := xs[0], xs[0]
		for _, v := range xs {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		g := Geomean(xs)
		return g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "demo", Workloads: []string{"a", "b"}}
	s := tab.AddSeries("scheme1")
	s.Values["a"] = 1.0
	s.Values["b"] = 4.0
	out := tab.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "scheme1") {
		t.Fatalf("table output missing headers: %q", out)
	}
	if !strings.Contains(out, "geomean") {
		t.Fatal("table output missing geomean row")
	}
	gm := tab.GeomeanRow()
	if math.Abs(gm[0]-2.0) > 1e-12 {
		t.Fatalf("geomean row = %v, want [2]", gm)
	}
}

func TestTableMissingValueRendersDash(t *testing.T) {
	tab := &Table{Title: "demo", Workloads: []string{"a", "b"}}
	s := tab.AddSeries("s")
	s.Values["a"] = 1.0
	if !strings.Contains(tab.String(), "-") {
		t.Fatal("missing value should render as dash")
	}
	gm := tab.GeomeanRow()
	if gm[0] != 1.0 {
		t.Fatalf("geomean should skip missing values, got %v", gm[0])
	}
}
