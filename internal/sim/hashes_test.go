package sim_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/figures"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/workload"
)

var updateHashes = flag.Bool("update", false,
	"rewrite testdata/snapshot_hashes.golden from this build's snapshots")

const hashesGolden = "testdata/snapshot_hashes.golden"

// pinnedImage is one snapshot whose bytes are pinned across builds.
type pinnedImage struct {
	name string
	snap *checkpoint.Snapshot
}

// pinnedImages builds the pinned snapshots: the warm-up checkpoint of
// every workload, and mid-run CheckpointAt images that between them hold
// every structure some configuration lacks or leaves empty — the filter
// caches of a 4-core MuonTrap run, SafeBet footprints, a trained
// prefetcher, a filter TLB.
func pinnedImages(t *testing.T) []pinnedImage {
	var out []pinnedImage
	specs := append(workload.SPEC2006(), workload.Parsec()...)
	for _, spec := range specs {
		s := figures.BuildSystem(spec, defense.Insecure(), 0.02)
		s.Warmup(2000)
		snap, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		s.Release()
		out = append(out, pinnedImage{"warm/" + spec.Name, snap})
	}
	for _, tc := range []struct {
		workload string
		scheme   defense.Scheme
		cycles   int
	}{
		{"canneal", defense.MuonTrap(), 5000},
		{"hmmer", defense.SafeBet(), 3000},
		{"libquantum", defense.Insecure(), 4000}, // a streaming kernel trains the prefetcher
		{"mcf", defense.FcacheOnly(), 4000},      // a filter TLB without the instruction filter
	} {
		s := figures.BuildSystem(simtest.MustSpec(t, tc.workload), tc.scheme, 0.05)
		s.Step(tc.cycles)
		snap, err := s.CheckpointAt(context.Background(), 0)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.workload, tc.scheme.Name, err)
		}
		ctr := map[string]uint64{}
		s.Hier.RenderCounters(ctr)
		if tc.workload == "libquantum" && ctr["pf.fills"] == 0 {
			t.Fatal("libquantum image has no trained prefetcher")
		}
		if tc.scheme.Name == "safebet" {
			// The footprints are in the image: clearing them shrinks their sections.
			s.Cores[0].FlushSpecFootprint()
			flushed, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			footprint := func(snap *checkpoint.Snapshot) int {
				return snap.Len("core0.safebet.data") + snap.Len("core0.safebet.code")
			}
			if footprint(snap) <= footprint(flushed) {
				t.Fatal("safebet image holds no footprint lines")
			}
		}
		s.Release()
		out = append(out, pinnedImage{"at/" + tc.workload + "/" + tc.scheme.Name, snap})
	}
	return out
}

// hashLines renders one image as golden lines: the image's SHA-256, then
// each section's, in section order.
func hashLines(t *testing.T, img pinnedImage) []string {
	enc := img.snap.Encode()
	spans := sectionSpans(t, enc)
	lines := []string{img.name + " " + img.snap.Hash()}
	for _, sec := range img.snap.Names() {
		sum := sha256.Sum256(enc[spans[sec][0]:spans[sec][1]])
		lines = append(lines, fmt.Sprintf("%s:%s %s", img.name, sec, hex.EncodeToString(sum[:])))
	}
	return lines
}

// goldenHeader is the golden's first line: the machineFormat it was
// written under.
const goldenHeader = "machineFormat %d"

// readGolden reads testdata/snapshot_hashes.golden: the machineFormat in
// its header and its hash lines.
func readGolden() (format int, lines []string, err error) {
	raw, err := os.ReadFile(hashesGolden)
	if err != nil {
		return 0, nil, err
	}
	head, rest, _ := strings.Cut(strings.TrimSuffix(string(raw), "\n"), "\n")
	if _, err := fmt.Sscanf(head, goldenHeader, &format); err != nil {
		return 0, nil, fmt.Errorf("%s: first line %q is not %q", hashesGolden, head, goldenHeader)
	}
	return format, strings.Split(rest, "\n"), nil
}

// movedSection names the first section of got whose bytes differ from
// want's, or is empty. Whole-image rows are skipped (they move exactly
// when a section does), and so are rows on one side only.
func movedSection(got, want []string) string {
	wantHash := map[string]string{}
	for _, l := range want {
		k, v, _ := strings.Cut(l, " ")
		wantHash[k] = v
	}
	for _, l := range got {
		k, v, _ := strings.Cut(l, " ")
		if w, ok := wantHash[k]; ok && w != v && strings.Contains(k, ":") {
			return fmt.Sprintf("%s (%s, golden %s)", k, v[:16], w[:16])
		}
	}
	return ""
}

// TestSnapshotBytesArePinned compares every pinned snapshot's SHA-256 with
// testdata/snapshot_hashes.golden. A saver refactor must leave every byte
// where it was; a failure names the image and its first section whose
// bytes moved. The golden records the machineFormat it was written under,
// and -update rewrites it only when no section moved or machineFormat
// changed since: moved bytes under an unchanged format are refused.
func TestSnapshotBytesArePinned(t *testing.T) {
	var got []string
	for _, img := range pinnedImages(t) {
		got = append(got, hashLines(t, img)...)
	}
	format, want, err := readGolden()
	if *updateHashes {
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
		if err == nil && format == sim.MachineFormat {
			if sec := movedSection(got, want); sec != "" {
				t.Fatalf("section %s moved bytes but machineFormat is still %d: bump it before rewriting the golden", sec, format)
			}
		}
		if err := os.MkdirAll(filepath.Dir(hashesGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		out := append([]string{fmt.Sprintf(goldenHeader, sim.MachineFormat)}, got...)
		if err := os.WriteFile(hashesGolden, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if format != sim.MachineFormat {
		t.Fatalf("the golden was written under machineFormat %d, this build writes %d (rewrite it with -update)", format, sim.MachineFormat)
	}
	if slices.Equal(got, want) {
		return
	}
	if sec := movedSection(got, want); sec != "" {
		t.Fatalf("section %s changed bytes", sec)
	}
	wantKeys := map[string]bool{}
	for _, l := range want {
		k, _, _ := strings.Cut(l, " ")
		wantKeys[k] = true
	}
	for _, l := range got {
		if k, _, _ := strings.Cut(l, " "); !wantKeys[k] {
			t.Fatalf("%s is not in the golden", k)
		}
	}
	t.Fatalf("snapshot hashes differ from the golden (%d lines, golden %d)", len(got), len(want))
}
