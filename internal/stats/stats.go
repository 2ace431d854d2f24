package stats

import (
	"fmt"
	"math"
	"strings"
)

// Geomean returns the geometric mean of xs. It panics if any value is
// non-positive, because a normalised execution time can never be ≤ 0.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geomean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Series is one named line on a figure: a value per workload.
type Series struct {
	Name   string
	Values map[string]float64
}

// Table holds the data behind one paper figure: a list of workloads on the
// x-axis and one or more series of per-workload values.
type Table struct {
	Title     string
	Workloads []string
	Series    []Series
}

// AddSeries appends a named series. Missing workloads render as NaN.
func (t *Table) AddSeries(name string) *Series {
	t.Series = append(t.Series, Series{Name: name, Values: make(map[string]float64)})
	return &t.Series[len(t.Series)-1]
}

// GeomeanRow returns the geometric mean of each series over all workloads
// that have a value in that series.
func (t *Table) GeomeanRow() []float64 {
	out := make([]float64, len(t.Series))
	for i, s := range t.Series {
		var xs []float64
		for _, w := range t.Workloads {
			if v, ok := s.Values[w]; ok {
				xs = append(xs, v)
			}
		}
		out[i] = Geomean(xs)
	}
	return out
}

// String renders the table in the row-per-workload format used by
// cmd/figures, with a trailing geomean row.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	fmt.Fprintf(&b, "%-16s", "workload")
	for _, s := range t.Series {
		fmt.Fprintf(&b, " %20s", s.Name)
	}
	b.WriteByte('\n')
	for _, w := range t.Workloads {
		fmt.Fprintf(&b, "%-16s", w)
		for _, s := range t.Series {
			v, ok := s.Values[w]
			if !ok {
				fmt.Fprintf(&b, " %20s", "-")
				continue
			}
			fmt.Fprintf(&b, " %20.3f", v)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-16s", "geomean")
	for _, g := range t.GeomeanRow() {
		fmt.Fprintf(&b, " %20.3f", g)
	}
	b.WriteByte('\n')
	return b.String()
}
