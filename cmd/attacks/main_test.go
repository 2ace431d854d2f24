package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goldenMatrix is the pinned security matrix the muontrap regression
// suite checks the library against.
const goldenMatrix = "../../muontrap/testdata/security_matrix.golden"

// TestBinaryMatrixMatchesGolden is the e2e smoke: the attacks binary's
// default output must be byte-for-byte the pinned golden matrix — one
// renderer, one artifact, no drift between the CLI and the library — and
// a filtered run must print the same cells the full one does.
func TestBinaryMatrixMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full corpus")
	}
	bin := filepath.Join(t.TempDir(), "attacks")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/attacks").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	stdout, err := exec.Command(bin).Output()
	if err != nil {
		t.Fatalf("attacks: %v", err)
	}
	want, err := os.ReadFile(goldenMatrix)
	if err != nil {
		t.Fatal(err)
	}
	if string(stdout) != string(want) {
		t.Fatalf("binary matrix differs from %s:\nbinary:\n%s\ngolden:\n%s", goldenMatrix, stdout, want)
	}

	// -attack and -scheme filter the matrix: a filtered run prints exactly
	// the cells it selects, each as the full matrix prints it.
	full := cells(t, string(stdout))
	lines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	rows, cols := len(lines)-2, len(strings.Fields(lines[1]))-1
	for _, tc := range []struct {
		args       []string
		rows, cols int
	}{
		{[]string{"-attack", "spectre"}, 1, cols},
		{[]string{"-scheme", "muontrap"}, rows, 1},
		{[]string{"-attack", "btb-data", "-scheme", "safebet"}, 1, 1},
	} {
		out, err := exec.Command(bin, tc.args...).Output()
		if err != nil {
			t.Fatalf("attacks %v: %v", tc.args, err)
		}
		got := cells(t, string(out))
		if len(got) != tc.rows*tc.cols {
			t.Fatalf("attacks %v printed %d cells, want %d rows × %d columns:\n%s", tc.args, len(got), tc.rows, tc.cols, out)
		}
		for at, v := range got {
			if full[at] != v {
				t.Fatalf("attacks %v: cell %v is %q, the full matrix's %q", tc.args, at, v, full[at])
			}
		}
	}
}

// cells parses a rendered matrix into its verdicts by (scenario, scheme).
func cells(t *testing.T, render string) map[[2]string]string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(render, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("not a matrix:\n%s", render)
	}
	schemes := strings.Fields(lines[1])[1:]
	out := make(map[[2]string]string)
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		if len(f) != 1+len(schemes) {
			t.Fatalf("row %q has %d cells for %d schemes", line, len(f)-1, len(schemes))
		}
		for i, s := range schemes {
			out[[2]string{f[0], s}] = f[1+i]
		}
	}
	return out
}
