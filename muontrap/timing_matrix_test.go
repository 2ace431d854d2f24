package muontrap_test

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/muontrap"
)

// The full-matrix timing golden: every registered workload under every
// registered scheme at a short scale, one line per cell — cycles,
// committed instructions and a digest of every statistics counter —
// pinned in testdata/timing_matrix.golden. The per-scheme goldens in
// golden_test.go pin two workloads; the differential suites compare the
// tree with itself; this is the table that makes model drift anywhere in
// the simulator fail the PR that caused it, with the moved cells named.
// A host-performance change must leave it untouched. Regenerate only for
// a deliberate model change, and review the diff cell by cell:
//
//	go test ./muontrap -run TestTimingMatrixGolden -update-timing-matrix

var updateTimingMatrix = flag.Bool("update-timing-matrix", false,
	"rewrite testdata/timing_matrix.golden from the current simulator")

const (
	timingMatrixPath  = "testdata/timing_matrix.golden"
	timingMatrixScale = 0.04
)

// counterDigest is the first 16 hex digits of a SHA-256 over the counter
// set in key order, so one moved counter anywhere changes the cell's line.
func counterDigest(counters map[string]uint64) string {
	h := sha256.New()
	for _, k := range slices.Sorted(maps.Keys(counters)) {
		fmt.Fprintf(h, "%s=%d\n", k, counters[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func renderTimingMatrix(runs []muontrap.RunResult) string {
	var b strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&b, "%s %s %d %d %s\n",
			r.Workload, r.Scheme, r.Cycles, r.Instructions, counterDigest(r.Counters))
	}
	return b.String()
}

func TestTimingMatrixGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("429-cell sweep; skipped under -short")
	}
	res, err := muontrap.NewRunner().Sweep(context.Background(), muontrap.Sweep{
		Workloads: muontrap.Workloads(),
		Schemes:   muontrap.Schemes(),
		Scales:    []float64{timingMatrixScale},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(muontrap.Workloads()) * len(muontrap.Schemes()); len(res.Runs) != want {
		t.Fatalf("sweep returned %d cells, want %d", len(res.Runs), want)
	}
	got := renderTimingMatrix(res.Runs)
	if *updateTimingMatrix {
		if err := os.WriteFile(timingMatrixPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(timingMatrixPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("timing matrix deviates from the pinned golden table.\n"+
			"A cell's cycles, committed count or counters changed — if the model change is intended, "+
			"rerun with -update-timing-matrix.\n%s", diffLines(got, string(want)))
	}
}
