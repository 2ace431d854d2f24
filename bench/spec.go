package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// benchSpec mirrors BENCHMARK.json, the single declaration of what the
// benchmark measures: the driver refuses to report a metric the file
// does not declare and fails when a declared metric was not measured, so
// the file and the program cannot drift apart.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Limits of the BENCHMARK.json schema.
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxBound     = 0.25
)

// repoRoot locates the checkout: BENCH_ROOT when bench/run.sh set it,
// else the nearest ancestor of the working directory holding
// BENCHMARK.json.
func repoRoot() (string, error) {
	if r := os.Getenv("BENCH_ROOT"); r != "" {
		return r, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// validate checks the declaration against the schema's limits.
func (s *benchSpec) validate() error {
	if n := len(s.Workloads); n < 2 || n > maxWorkloads {
		return fmt.Errorf("%d workloads, want 2..%d", n, maxWorkloads)
	}
	if n := len(s.EndToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1..%d", n, maxEndToEnd)
	}
	if n := len(s.PerLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1..%d", n, maxPerLayer)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1..60", s.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			return fmt.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for i, list := range [][]metricDecl{s.EndToEnd, s.PerLayer} {
		endToEnd := i == 0
		for _, m := range list {
			if err := name(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better must be lower or higher", m.Name)
			}
			switch {
			case endToEnd && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > maxBound):
				return fmt.Errorf("metric %s: bound must be in (0, %.2f]", m.Name, maxBound)
			case !endToEnd && m.Bound != nil:
				return fmt.Errorf("per-layer metric %s carries a bound", m.Name)
			}
			if endToEnd && m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
				hasSetup = true
			}
		}
	}
	if !hasSetup {
		return fmt.Errorf("end_to_end lacks setup_s (unit s, better lower)")
	}
	return nil
}

// metricValue is one reported number in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs measured values with their declarations. Every declared
// metric must have been measured and every measured metric declared.
func report(decls []metricDecl, got map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	var missing []string
	for _, d := range decls {
		v, ok := got[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("declared but not measured: %s", strings.Join(missing, ", "))
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.Name] = true
	}
	var extra []string
	for n := range got {
		if !declared[n] {
			extra = append(extra, n)
		}
	}
	if len(extra) > 0 {
		return nil, fmt.Errorf("measured but not declared in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return out, nil
}
