package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/figures"
)

// hostInfo identifies where and from what a result set was measured, so
// rows from different boxes or builds are never compared silently.
type hostInfo struct {
	CPUModel       string `json:"cpu_model"`
	NumCPU         int    `json:"num_cpu"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	GOOS           string `json:"goos"`
	GOARCH         string `json:"goarch"`
	GitCommit      string `json:"git_commit"`
	BinFingerprint string `json:"bin_fingerprint"`
}

// resultSet is the file the driver writes and -compare reads.
type resultSet struct {
	Host      hostInfo                   `json:"host"`
	When      string                     `json:"when"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Iters     int                        `json:"iters"` // 0: as many as fit in Seconds
	Quick     bool                       `json:"quick"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	EndToEnd *passResult `json:"end_to_end,omitempty"`
	PerLayer *passResult `json:"per_layer,omitempty"`
}

func newResultSet(root string, cfg runConfig, quick bool) *resultSet {
	return &resultSet{
		Host: hostInfo{
			CPUModel:       cpuModel(),
			NumCPU:         runtime.NumCPU(),
			GOMAXPROCS:     runtime.GOMAXPROCS(0),
			GoVersion:      runtime.Version(),
			GOOS:           runtime.GOOS,
			GOARCH:         runtime.GOARCH,
			GitCommit:      gitCommit(root),
			BinFingerprint: figures.BinFingerprint(),
		},
		When:      time.Now().UTC().Format(time.RFC3339),
		Seed:      cfg.seed,
		Seconds:   cfg.seconds,
		Iters:     cfg.iters,
		Quick:     quick,
		Workloads: map[string]*workloadResult{},
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is empty-handed in the driver's checkout, which is not a git
// repository; "unknown" is then the honest answer.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	// Do not let git search above the checkout for a repository.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(out))
}

func (s *resultSet) add(workload string, traced bool, res passResult) {
	w := s.Workloads[workload]
	if w == nil {
		w = &workloadResult{}
		s.Workloads[workload] = w
	}
	if traced {
		w.PerLayer = &res
	} else {
		w.EndToEnd = &res
	}
}

// write stores the set at path; an empty path writes nothing.
func (s *resultSet) write(path string) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// exactCount reports whether a per-layer metric is a count made by the
// program: deterministic for a given seed, so two sets of the same seed
// must agree exactly, whatever the host's noise.
func exactCount(name string) bool {
	switch {
	case strings.HasPrefix(name, "figures.norm_time."),
		strings.Contains(name, ".allocs_per_"),
		name == "sim.cycles", name == "sim.insts", name == "checkpoint.ckpts_taken":
		return true
	}
	switch name {
	case "memsys.l0d_hit_frac", "memsys.l1d_mpki", "memsys.ptwalks_pki", "memsys.se_upgrades",
		"memsys.coh_nacks", "memsys.filter_broadcasts", "memsys.domain_flushes",
		"cpu.mispredicts_pki", "cpu.squashed_frac", "cpu.defense_stalls_pki":
		return true
	}
	return false
}

// verdict classifies b against a for one end-to-end metric. A change
// within the bound counts as the same only when neither set's own
// iterations spread wider than the bound; otherwise it is unresolved.
func verdict(d metricDecl, a, b float64, sa, sb sample) (string, float64) {
	if a == 0 {
		return "unresolved", 0
	}
	worse := (b - a) / a // relative worsening
	if d.Better == "higher" {
		worse = (a - b) / a
	}
	bound := *d.Bound
	switch {
	case worse > bound:
		return "WORSE", worse
	case worse < -bound:
		return "better", worse
	case spread(sa) > bound || spread(sb) > bound:
		return "unresolved", worse
	}
	return "same", worse
}

// spread is how far a set's own iterations lie apart, relative to their
// median: the distance between the quartiles, or between the extremes when
// there are too few iterations for quartiles to differ from them.
func spread(s sample) float64 {
	switch {
	case s.N < 2 || s.Median == 0:
		return 0
	case s.N < 4:
		return (s.Max - s.Min) / s.Median
	}
	return (s.Q3 - s.Q1) / s.Median
}

// compareSets prints one row per (metric, workload) and returns non-zero
// when any end-to-end metric worsened beyond its bound, any exact count
// changed, or more operations failed.
func compareSets(spec *benchSpec, pathA, pathB string, force bool, w io.Writer) int {
	a, err := readSet(pathA)
	if err != nil {
		return fatal(err)
	}
	b, err := readSet(pathB)
	if err != nil {
		return fatal(err)
	}
	if a.Host.NumCPU != b.Host.NumCPU || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS || a.Host.GoVersion != b.Host.GoVersion || a.Quick != b.Quick {
		fmt.Fprintf(w, "sets differ in host or size: A %d CPUs GOMAXPROCS %d %s quick=%v; B %d CPUs GOMAXPROCS %d %s quick=%v\n",
			a.Host.NumCPU, a.Host.GOMAXPROCS, a.Host.GoVersion, a.Quick, b.Host.NumCPU, b.Host.GOMAXPROCS, b.Host.GoVersion, b.Quick)
		if !force {
			fmt.Fprintln(w, "refusing to compare (use -force)")
			return 2
		}
	}
	sameSeed := a.Seed == b.Seed
	bad := 0
	var names []string
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-36s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "change", "verdict")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa.EndToEnd != nil && wb.EndToEnd != nil {
			for _, d := range spec.EndToEnd {
				va, oka := wa.EndToEnd.Metrics[d.Name]
				vb, okb := wb.EndToEnd.Metrics[d.Name]
				if !oka || !okb {
					continue
				}
				v, worse := verdict(d, va, vb, wa.EndToEnd.Samples[d.Name], wb.EndToEnd.Samples[d.Name])
				if v == "WORSE" {
					bad++
				}
				fmt.Fprintf(w, "%-14s %-36s %14.6g %14.6g %+8.1f%%  %s (bound %.0f%%, worse is +)\n", name, d.Name, va, vb, 100*worse, v, 100**d.Bound)
			}
			if fa, fb := failedFrac(wa.EndToEnd), failedFrac(wb.EndToEnd); fb > fa {
				bad++
				fmt.Fprintf(w, "%-14s %-36s %14.6g %14.6g            WORSE (more operations failed)\n", name, "failed_frac", fa, fb)
			}
		}
		if wa.PerLayer != nil && wb.PerLayer != nil {
			for _, d := range spec.PerLayer {
				va, oka := wa.PerLayer.Metrics[d.Name]
				vb, okb := wb.PerLayer.Metrics[d.Name]
				if !oka || !okb {
					continue
				}
				v := ""
				switch {
				case !exactCount(d.Name):
				case !sameSeed:
					v = "exact count, seeds differ: not compared"
				case va != vb:
					v = "DIFFERENT (exact count)"
					bad++
				default:
					v = "equal (exact count)"
				}
				change := 0.0
				if va != 0 {
					change = 100 * (vb - va) / va
				}
				fmt.Fprintf(w, "%-14s %-36s %14.6g %14.6g %+8.1f%%  %s\n", name, d.Name, va, vb, change, v)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", bad)
		return 1
	}
	fmt.Fprintln(w, "no end-to-end metric beyond its bound; every compared exact count equal")
	return 0
}

func failedFrac(p *passResult) float64 {
	if p.Attempted == 0 {
		return 0
	}
	return float64(p.Failed) / float64(p.Attempted)
}
