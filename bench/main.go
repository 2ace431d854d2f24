// Command bench is the repository's benchmark: four workloads over the
// public Runner API and the muontrapd binary, a fixed set of end-to-end
// metrics measured with tracing off, and a traced pass that attributes
// host time to layers and runs one micro-driver ("rung") per layer.
// BENCHMARK.json at the repository root declares every workload and
// metric; bench/README.md explains them.
//
//	bash bench/run.sh --workload spec-sweep --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                       # every workload, both passes
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

// resultLine is the last line of standard output of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run (default: all four, both passes)")
		seed     = fs.Uint64("seed", 1, "input seed: declaration order, scale jitter, remote job sequence")
		seconds  = fs.Float64("seconds", 0, "seconds to measure (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		iters    = fs.Int("iters", 0, "measure exactly this many cold iterations instead of -seconds")
		quick    = fs.Bool("quick", false, "tiny inputs, one iteration: a smoke pass for tests")
		out      = fs.String("out", "", "write the result set (with host metadata) to this file")
		compare  = fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
		force    = fs.Bool("force", false, "with -compare: compare sets from different hosts anyway")
		child    = fs.String("child", "", "internal: child mode")
		specFile = fs.String("spec", "", "internal: child input file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return childMain(*child, *specFile)
	}
	root, err := repoRoot()
	if err != nil {
		return fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fatal(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fatal(fmt.Errorf("-compare needs two result-set files"))
		}
		return compareSets(spec, fs.Arg(0), fs.Arg(1), *force, os.Stdout)
	}

	live.base = filepath.Join(root, ".bench_build", "tmp")
	live.onSignal()
	defer live.cleanup()

	daemon, err := daemonBinary(root)
	if err != nil {
		return fatal(err)
	}
	cfg := runConfig{root: root, seed: *seed, seconds: *seconds, iters: *iters, sz: fullSizes(), daemon: daemon}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if *quick {
		cfg.sz, cfg.iters = quickSizes(), 1
	}
	ctx := context.Background()
	set := newResultSet(root, cfg, *quick)

	// One workload, one pass: the table goes to standard error and the
	// result line ends standard output. No workload: all of them, untraced
	// then traced, tables on standard output, and the set is always written.
	names, passes, tables := workloadNames(spec), []bool{false, true}, os.Stdout
	single := *workload != ""
	if single {
		if !slices.Contains(names, *workload) {
			return fatal(fmt.Errorf("unknown workload %q (BENCHMARK.json declares %s)", *workload, strings.Join(names, ", ")))
		}
		names, passes, tables = []string{*workload}, []bool{*trace == 1}, os.Stderr
	} else if *out == "" {
		*out = filepath.Join(root, "bench", "out", fmt.Sprintf("set-seed%d.json", cfg.seed))
	}
	ok := true
	var line []byte
	for _, name := range names {
		cfg.workload = name
		for _, traced := range passes {
			res, decls, err := onePass(ctx, cfg, spec, traced)
			if err != nil {
				return fatal(fmt.Errorf("%s: %w", name, err))
			}
			metrics, err := report(decls, res.Metrics)
			if err != nil {
				return fatal(fmt.Errorf("%s: %w", name, err))
			}
			set.add(name, traced, res)
			printTable(tables, name, decls, res)
			ok = ok && res.correct()
			if line, err = json.Marshal(resultLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics}); err != nil {
				return fatal(err)
			}
		}
	}
	if err := set.write(*out); err != nil {
		return fatal(err)
	}
	if single {
		fmt.Println(string(line))
	} else {
		fmt.Printf("result set written to %s\n", *out)
	}
	if !ok {
		return 1
	}
	return 0
}

// onePass runs the untraced or the traced pass of one workload and returns
// the declarations its metrics must match.
func onePass(ctx context.Context, cfg runConfig, spec *benchSpec, traced bool) (passResult, []metricDecl, error) {
	if traced {
		res, err := runTraced(ctx, cfg)
		return res, spec.PerLayer, err
	}
	res, err := runUntraced(ctx, cfg)
	return res, spec.EndToEnd, err
}

func workloadNames(spec *benchSpec) []string {
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return names
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// printTable prints every metric by name with its value, unit, direction
// and (for end-to-end metrics) regression bound and spread over the
// iterations.
func printTable(w *os.File, workload string, decls []metricDecl, res passResult) {
	fmt.Fprintf(w, "\n%s: attempted %d, failed %d, correct %v\n", workload, res.Attempted, res.Failed, res.correct())
	if res.HostFactor != 0 {
		fmt.Fprintf(w, "  host speed %.3f of nominal: times below are scaled by it, raw medians in braces\n", res.HostFactor)
	}
	for _, d := range decls {
		v, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-40s %14.6g %-10s %-6s", d.Name, v, d.Unit, d.Better)
		if d.Bound != nil {
			line += fmt.Sprintf(" bound %.2f", *d.Bound)
		}
		if s, ok := res.Samples[d.Name]; ok && s.N > 1 {
			line += fmt.Sprintf("  [min %.6g max %.6g n %d]", s.Min, s.Max, s.N)
		}
		if raw, ok := res.Raw[d.Name]; ok && hostTime[d.Name] != 0 {
			line += fmt.Sprintf("  {%.6g}", raw)
		}
		fmt.Fprintln(w, line)
	}
	problems := append([]string(nil), res.Problems...)
	sort.Strings(problems)
	for i, p := range problems {
		if i == 10 {
			fmt.Fprintf(w, "  ... and %d more problems\n", len(problems)-10)
			break
		}
		fmt.Fprintln(w, "  PROBLEM:", p)
	}
}

// childMain runs one child mode and prints its report as one JSON line.
func childMain(kind, specFile string) int {
	root, err := repoRoot()
	if err != nil {
		return fatal(err)
	}
	live.base = filepath.Join(root, ".bench_build", "tmp")
	live.onSignal()
	defer live.cleanup()

	var rep any
	switch kind {
	case "ready", "sweep", "sweep-lite":
		var in sweepInput
		if err := readSpec(specFile, &in); err != nil {
			return fatal(err)
		}
		if kind == "ready" {
			if err := childReady(in); err != nil {
				return fatal(err)
			}
			return 0
		}
		r, err := childSweep(in, kind == "sweep-lite")
		if err != nil {
			return fatal(err)
		}
		rep = r
	case "remote":
		var in remoteInput
		if err := readSpec(specFile, &in); err != nil {
			return fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), childTimeout-5*time.Second)
		defer cancel()
		r, err := runRemote(ctx, in, nil)
		if err != nil {
			return fatal(err)
		}
		rep = r
	case "simpair":
		var in simPairInput
		if err := readSpec(specFile, &in); err != nil {
			return fatal(err)
		}
		r, err := childSimPair(in)
		if err != nil {
			return fatal(err)
		}
		rep = r
	default:
		return fatal(fmt.Errorf("unknown child mode %q", kind))
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(b))
	return 0
}
