package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/muontrap"
)

// sweepReport is what a sweep child prints: one cold Sweep through the
// public Runner, timed from the call to the rendered result, plus the
// facts the driver needs to check the outputs.
type sweepReport struct {
	WallS     float64   `json:"wall_s"`
	AllocMB   float64   `json:"alloc_mb"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Cells     int       `json:"cells"`
	Insts     uint64    `json:"insts"`  // committed by workload cells
	Cycles    uint64    `json:"cycles"` // simulated, workload cells
	FirstMS   float64   `json:"first_ms"`
	GapsMS    []float64 `json:"gaps_ms"` // between consecutive cell completions
	// ResultSHA hashes the rendered result; Digests hashes each cell
	// (cycles, instructions, every counter) under an order-free key.
	ResultSHA string             `json:"result_sha"`
	Digests   map[string]string  `json:"digests,omitempty"`
	Counters  map[string]uint64  `json:"counters,omitempty"`  // summed over workload cells, cores merged
	NormTime  map[string]float64 `json:"norm_time,omitempty"` // geomean cycles / insecure, per scheme
	Problems  []string           `json:"problems,omitempty"`
}

// childSweep runs one sweep child. lite skips everything but the result
// hash: the warm re-emit's wall is measured by the parent around the whole
// process, so the child must not pad it.
func childSweep(in sweepInput, lite bool) (sweepReport, error) {
	var rep sweepReport
	ctx := context.Background()
	start := time.Now()
	last := start
	opts := []muontrap.RunnerOption{
		muontrap.WithWorkers(in.Workers),
		muontrap.WithProgress(func(p muontrap.Progress) {
			now := time.Now()
			if p.Done == 1 && rep.FirstMS == 0 {
				rep.FirstMS = ms(now.Sub(start))
			}
			rep.GapsMS = append(rep.GapsMS, ms(now.Sub(last)))
			last = now
		}),
	}
	if in.CacheDir != "" {
		opts = append(opts, muontrap.WithCacheDir(in.CacheDir))
	}
	if in.Warmup > 0 {
		opts = append(opts, muontrap.WithWarmup(in.Warmup))
	}
	if in.CkptEvery > 0 {
		opts = append(opts, muontrap.WithCheckpointEvery(in.CkptEvery))
	}
	runner := muontrap.NewRunner(opts...)
	res, rendered, err := sweepAndRender(ctx, runner, in.Sweep)
	if err != nil {
		return rep, err
	}
	rep.WallS = time.Since(start).Seconds()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.AllocMB = float64(m.TotalAlloc) / 1e6
	rep.PeakRSSMB = peakRSSMB(os.Getpid())
	rep.Cells = len(res.Runs)
	rep.ResultSHA = shaHex(rendered)
	if lite {
		return rep, nil
	}

	rep.Digests = map[string]string{}
	rep.Counters = map[string]uint64{}
	for _, run := range res.Runs {
		rep.Digests[cellKey(run)] = cellDigest(run)
		if run.Attack != "" {
			continue
		}
		rep.Insts += run.Instructions
		rep.Cycles += run.Cycles
		for k, v := range run.Counters {
			rep.Counters[mergeCores(k)] += v
		}
	}
	rep.NormTime = normTimes(res)
	if in.SchemeInvariant {
		rep.Problems = append(rep.Problems, schemeInvariance(res)...)
	}
	if in.Golden != "" {
		if p := checkGolden(in, res); p != "" {
			rep.Problems = append(rep.Problems, p)
		}
	}
	return rep, nil
}

// sweepAndRender is the timed unit of every sweep workload: the Sweep
// call and the rendering of its result as the wire JSON (plus, for a
// sweep with attack cells, the assembled security matrix table).
func sweepAndRender(ctx context.Context, r *muontrap.Runner, sw muontrap.Sweep) (*muontrap.SweepResult, []byte, error) {
	res, err := r.Sweep(ctx, sw)
	if err != nil {
		return nil, nil, err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return nil, nil, err
	}
	if len(sw.Attacks) > 0 {
		m, err := muontrap.SecurityMatrixFromSweep(sw, res)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, m.Render()...)
	}
	return res, out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func shaHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// cellKey names a cell independently of declaration order.
func cellKey(r muontrap.RunResult) string {
	if r.Attack != "" {
		return fmt.Sprintf("attack:%s|%s", r.Attack, r.Scheme)
	}
	return fmt.Sprintf("%s|%s|%g", r.Workload, r.Scheme, r.Scale)
}

// cellDigest hashes everything a cell reports.
func cellDigest(r muontrap.RunResult) string {
	keys := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%d %d", r.Cycles, r.Instructions)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, r.Counters[k])
	}
	return shaHex([]byte(b.String()))[:16]
}

// mergeCores folds "core3.l0d.hits" into "core.l0d.hits".
func mergeCores(name string) string {
	if !strings.HasPrefix(name, "core") {
		return name
	}
	i := 4
	for i < len(name) && name[i] >= '0' && name[i] <= '9' {
		i++
	}
	if i == 4 || i >= len(name) || name[i] != '.' {
		return name
	}
	return "core" + name[i:]
}

// normTimes is each scheme's geomean over kernels of cycles normalised to
// the insecure run of the same kernel and scale — the number the paper's
// Fig. 3/4 plot. It is simulated time, exact, and reported only so that
// drift in the model is visible next to a host-time change.
func normTimes(res *muontrap.SweepResult) map[string]float64 {
	base := map[string]float64{}
	for _, r := range res.Runs {
		if r.Attack == "" && r.Scheme == muontrap.SchemeInsecure {
			base[fmt.Sprintf("%s|%g", r.Workload, r.Scale)] = float64(r.Cycles)
		}
	}
	ratios := map[string][]float64{}
	for _, r := range res.Runs {
		b := base[fmt.Sprintf("%s|%g", r.Workload, r.Scale)]
		if r.Attack != "" || r.Scheme == muontrap.SchemeInsecure || b == 0 {
			continue
		}
		ratios[string(r.Scheme)] = append(ratios[string(r.Scheme)], float64(r.Cycles)/b)
	}
	out := map[string]float64{}
	for s, xs := range ratios {
		out[s] = geomean(xs)
	}
	return out
}

// schemeInvariance checks that every kernel commits the same number of
// instructions under every scheme.
func schemeInvariance(res *muontrap.SweepResult) []string {
	want := map[muontrap.Workload]uint64{}
	var problems []string
	for _, r := range res.Runs {
		if r.Attack != "" {
			continue
		}
		if w, ok := want[r.Workload]; !ok {
			want[r.Workload] = r.Instructions
		} else if w != r.Instructions {
			problems = append(problems, fmt.Sprintf("%s commits %d instructions under %s, %d under another scheme", r.Workload, r.Instructions, r.Scheme, w))
		}
	}
	return problems
}

// checkGolden renders the security matrix in its canonical order and
// compares it with the golden file in the tree. It applies only when the
// sweep ran the whole corpus under every matrix scheme.
func checkGolden(in sweepInput, res *muontrap.SweepResult) string {
	if len(in.Sweep.Attacks) != len(muontrap.AttackNames()) || len(in.Sweep.Schemes) != len(muontrap.SecuritySchemes()) {
		return ""
	}
	want, err := os.ReadFile(in.Golden)
	if err != nil {
		return fmt.Sprintf("reading the security-matrix golden: %v", err)
	}
	m, err := muontrap.SecurityMatrixFromSweep(muontrap.Sweep{Attacks: muontrap.AttackNames(), Schemes: muontrap.SecuritySchemes()}, res)
	if err != nil {
		return err.Error()
	}
	if m.Render() != string(want) {
		return "rendered security matrix differs from muontrap/testdata/security_matrix.golden"
	}
	return ""
}

// childReady is the set-up probe: a fresh process that builds the runner
// and resolves every identifier of the sweep, then exits. Its wall, seen
// from the parent, is what a cold process pays before simulating.
func childReady(in sweepInput) error {
	_ = muontrap.NewRunner(muontrap.WithWorkers(in.Workers))
	for _, w := range in.Sweep.Workloads {
		if _, err := muontrap.ParseWorkload(string(w)); err != nil {
			return err
		}
	}
	for _, s := range in.Sweep.Schemes {
		if _, err := muontrap.ParseScheme(string(s)); err != nil {
			return err
		}
	}
	for _, a := range in.Sweep.Attacks {
		if _, err := muontrap.ParseAttackName(string(a)); err != nil {
			return err
		}
	}
	return nil
}
