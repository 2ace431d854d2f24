package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		med, p90, p100 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{4, 1, 3, 2}, 2.5, 4, 4},
		{[]float64{9, 1, 5}, 5, 9, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 9, 10},
	} {
		if got := median(tc.xs); got != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.med)
		}
		if got := percentile(tc.xs, 90); got != tc.p90 {
			t.Errorf("p90(%v) = %v, want %v", tc.xs, got, tc.p90)
		}
		if got := percentile(tc.xs, 100); got != tc.p100 {
			t.Errorf("p100(%v) = %v, want %v", tc.xs, got, tc.p100)
		}
	}
	if median(nil) != 0 || percentile(nil, 50) != 0 {
		t.Error("empty input must report 0")
	}
	s := summarise([]float64{3, 1, 2})
	if s.Median != 2 || s.Q1 != 1 || s.Q3 != 3 || s.Min != 1 || s.Max != 3 || s.N != 3 {
		t.Errorf("summarise = %+v", s)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	ns := func(s float64) int64 { return int64(s * 1e9) }
	spans := []span{
		{ID: 1, Parent: 0, Name: "a.root", Start: ns(0), End: ns(10)},
		{ID: 2, Parent: 1, Name: "b.child", Start: ns(1), End: ns(4)},
		{ID: 3, Parent: 1, Name: "b.overlap", Start: ns(3), End: ns(6)}, // overlaps span 2 for 1 s
		{ID: 4, Parent: 2, Name: "c.grandchild", Start: ns(2), End: ns(3)},
		{ID: 5, Parent: 1, Name: "b.outlives", Start: ns(9), End: ns(12)}, // ends after its parent
	}
	self := selfTimes(spans)
	want := map[int]float64{
		1: 4, // 10 - union([1,6], [9,10]) = 10 - 6
		2: 2, // 3 - 1
		3: 3,
		4: 1,
		5: 3,
	}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-9 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	layers := layerSelf(spans, spanLayer)
	if math.Abs(layers["a"]-4) > 1e-9 || math.Abs(layers["b"]-8) > 1e-9 || math.Abs(layers["c"]-1) > 1e-9 {
		t.Errorf("layer self times = %v", layers)
	}
}

// With children that do not overlap, self times add up to the root's wall.
func TestSelfTimesSumToRoot(t *testing.T) {
	tr := newTracer()
	root, endRoot := tr.open("t", "x.root", 0)
	for i := 0; i < 3; i++ {
		cell, endCell := tr.open("t", "x.cell", root)
		_, end := tr.open("t", "y.step", cell)
		end()
		endCell()
	}
	endRoot()
	spans := tr.all()
	total := 0.0
	for _, s := range selfTimes(spans) {
		total += s
	}
	wall := float64(spans[0].End-spans[0].Start) / 1e9
	if math.Abs(total-wall) > 1e-9 {
		t.Errorf("self times sum to %v, root lasted %v", total, wall)
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.10
	lower := metricDecl{Name: "wall", Better: "lower", Bound: &bound}
	higher := metricDecl{Name: "rate", Better: "higher", Bound: &bound}
	steady := sample{Median: 100, Min: 99, Max: 101, N: 3}
	noisy := sample{Median: 100, Min: 80, Max: 120, N: 3}
	outliers := sample{Median: 100, Q1: 97, Q3: 103, Min: 50, Max: 300, N: 24}
	for _, tc := range []struct {
		d      metricDecl
		a, b   float64
		sa, sb sample
		want   string
	}{
		{lower, 100, 120, steady, steady, "WORSE"},
		{lower, 100, 80, steady, steady, "better"},
		{lower, 100, 105, steady, steady, "same"},
		{lower, 100, 105, steady, noisy, "unresolved"},
		{lower, 100, 105, steady, outliers, "same"},
		{higher, 100, 80, steady, steady, "WORSE"},
		{higher, 100, 120, steady, steady, "better"},
	} {
		if got, _ := verdict(tc.d, tc.a, tc.b, tc.sa, tc.sb); got != tc.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// Times are scaled by the host factor, rates by its inverse, memory not at
// all; the raw medians stay available.
func TestHostScaling(t *testing.T) {
	tm := timed{}
	tm.add("cold_wall_s", 10)
	tm.add("cold_wall_s", 14)
	tm.add("sim_minsts_per_s", 2)
	tm.add("alloc_mb", 100)
	var res passResult
	tm.into(&res, 0.5)
	for name, want := range map[string]float64{"cold_wall_s": 6, "sim_minsts_per_s": 4, "alloc_mb": 100} {
		if got := res.Metrics[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if res.Raw["cold_wall_s"] != 12 || res.Samples["cold_wall_s"].Max != 7 {
		t.Errorf("raw %v, samples %+v", res.Raw, res.Samples["cold_wall_s"])
	}
	if got := midMean([]float64{100, 1, 3, 2, 4, 5, 6, 7}); got != 4.5 { // drops 1, 2 and 7, 100
		t.Errorf("midMean = %v, want 4.5", got)
	}
	if midMean(nil) != 0 || midMean([]float64{3, 5}) != 4 {
		t.Error("midMean of none must be 0, of fewer than four the plain mean")
	}
}

// The same seed must generate the same inputs, and another seed others.
func TestInputsFollowSeed(t *testing.T) {
	a, _ := genSweep(wlSpec, 7, fullSizes())
	b, _ := genSweep(wlSpec, 7, fullSizes())
	c, _ := genSweep(wlSpec, 8, fullSizes())
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	jc, _ := json.Marshal(c)
	if string(ja) != string(jb) {
		t.Error("the same seed generated different sweeps")
	}
	if string(ja) == string(jc) {
		t.Error("different seeds generated the same sweep")
	}
	if n := len(a.Sweep.Workloads) * len(a.Sweep.Schemes); n != 182 {
		t.Errorf("spec-sweep declares %d cells, want 182", n)
	}
	ra, _ := json.Marshal(genRemote(7, fullSizes(), "d"))
	rb, _ := json.Marshal(genRemote(7, fullSizes(), "d"))
	if string(ra) != string(rb) {
		t.Error("the same seed generated different remote job sequences")
	}
	// No two fresh sweeps of a remote sequence may be the same computation.
	seen := map[string]bool{}
	for _, seq := range genRemote(7, fullSizes(), "d").Clients {
		for _, j := range seq {
			k, _ := json.Marshal(j.Sweep)
			if seen[string(k)] {
				t.Errorf("remote sequence repeats %s", k)
			}
			seen[string(k)] = true
		}
	}
}

// TestQuickPass runs the benchmark's -quick pass end to end — real child
// processes, a real muontrapd and one fleet worker unless -short — and
// checks that every workload and metric BENCHMARK.json declares is emitted
// and that the file stays within the schema's limits.
func TestQuickPass(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) > maxWorkloads || len(spec.EndToEnd) > maxEndToEnd || len(spec.PerLayer) > maxPerLayer {
		t.Fatalf("BENCHMARK.json exceeds the schema: %d workloads, %d end-to-end, %d per-layer",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	for _, want := range []string{wlSpec, wlParsec, wlCkpt, wlRemote} {
		if !slices.Contains(workloadNames(spec), want) {
			t.Errorf("BENCHMARK.json does not declare workload %s", want)
		}
	}
	// The driver re-executes itself for child modes; under go test that
	// binary is the test binary, so build the real one.
	bin := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building the driver: %v\n%s", err, out)
	}
	daemon, err := daemonBinary(root)
	if err != nil {
		t.Fatal(err)
	}
	live.base = filepath.Join(root, ".bench_build", "tmp")
	t.Cleanup(live.cleanup)
	selfExe = bin
	t.Cleanup(func() { selfExe = "" })

	for _, w := range spec.Workloads {
		if testing.Short() && w.Name == wlRemote {
			continue
		}
		cfg := runConfig{root: root, workload: w.Name, seed: 1, iters: 1, sz: quickSizes(), daemon: daemon}
		res, err := runUntraced(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if _, err := report(spec.EndToEnd, res.Metrics); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if !res.correct() || res.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d, problems %v", w.Name, res.Attempted, res.Failed, res.Problems)
		}
		for _, d := range spec.EndToEnd {
			if v := res.Metrics[d.Name]; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.Name, d.Name, v)
			}
		}
	}
	if testing.Short() {
		return // the traced pass always drives a daemon and a fleet
	}
	cfg := runConfig{root: root, workload: wlCkpt, seed: 1, iters: 1, sz: quickSizes(), daemon: daemon}
	res, err := runTraced(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := report(spec.PerLayer, res.Metrics); err != nil {
		t.Error(err)
	}
	if !res.correct() {
		t.Errorf("traced pass: failed %d, problems %v", res.Failed, res.Problems)
	}
	// The traced cells run on one worker, so the layers' self times must
	// add up to the traced wall.
	sum := 0.0
	for _, name := range []string{"sim.setup_self_s", "sim.warmup_self_s", "sim.run_self_s", "workload.self_s",
		"checkpoint.self_s", "attack.self_s", "figures.glue_self_s"} {
		sum += res.Metrics[name]
	}
	if wall := res.Metrics["figures.traced_wall_s"]; math.Abs(sum-wall) > 0.02*wall {
		t.Errorf("layer self times sum to %.4f s, traced wall is %.4f s", sum, wall)
	}
	if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace-ckpt-matrix-seed1.jsonl")); err != nil {
		t.Errorf("span file: %v", err)
	}
}
