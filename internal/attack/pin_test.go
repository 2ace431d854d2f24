package attack

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/defense"
	"repro/internal/event"
)

var updateResults = flag.Bool("update", false,
	"rewrite testdata/results.golden from this build's attack results")

const resultsGolden = "testdata/results.golden"

// resultLine renders one attack result for the golden: the normalised
// secret, the verdict, the signal's exact bits and every latency.
func resultLine(sc Scenario, sch defense.Scheme, r Result) string {
	return fmt.Sprintf("%s/%s secret=%d leaked=%d succeeded=%v signal=%#016x lat=%v",
		sc.Name, sch.Name, r.Secret, r.Leaked, r.Succeeded, math.Float64bits(r.Signal), r.Latencies)
}

// TestScenarioResultsArePinned runs every corpus scenario under every
// scheme and compares each result with testdata/results.golden. The
// rendered security matrix shows only the verdict and three signal digits
// for seven columns; this golden holds every latency under all thirteen
// schemes, so a receiver refactor that shifts a single timing fails here.
// Rewrite the file with -update only when a timing change is intended.
func TestScenarioResultsArePinned(t *testing.T) {
	var got []string
	for _, sc := range Scenarios() {
		for _, sch := range defense.All() {
			got = append(got, resultLine(sc, sch, Run(sc, sch)))
		}
	}
	if *updateResults {
		if err := os.MkdirAll(filepath.Dir(resultsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resultsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(resultsGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d results, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("result moved:\n  got:  %s\n  want: %s", got[i], want[i])
		}
	}
}

// Pin of the points TestValidateLattice enumerates that Validate accepts:
// their count and the SHA-256 of their sorted encodings.
const (
	latticeAccepted = 1340
	latticeSHA256   = "d5c32ed3c9ed50bd7ad7229370ad9defff4a1d9c78eed6945032522791787c8d"
)

// TestValidateLattice enumerates a lattice of scenario fields around every
// channel's bounds and pins exactly which points Validate accepts. The pin
// was recorded while scenarios still carried a training and a decision
// field, with both looped over every kind: only the pair the gadget and
// channel imply was ever accepted.
func TestValidateLattice(t *testing.T) {
	accepted := make(map[string]bool)
	for g := GadgetKind(0); g < gadgetKinds; g++ {
		for c := ChannelKind(0); c < channelKinds; c++ {
			for cand := 0; cand <= 16; cand++ {
				for _, stride := range []uint64{0, 3, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192} {
					for _, dist := range []int{-1, 0, 64, 65} {
						for _, delta := range []event.Cycle{0, 8} {
							for _, secret := range []int{-1, 0, cand - 1, cand} {
								sc := Scenario{Name: "lattice", Gadget: g, Channel: c, Candidates: cand,
									Stride: stride, SecretDist: dist, MinDelta: delta, Secret: secret}
								if sc.Validate() == nil {
									accepted[sc.Encode()] = true
								}
							}
						}
					}
				}
			}
		}
	}
	encs := make([]string, 0, len(accepted))
	for e := range accepted {
		encs = append(encs, e)
	}
	slices.Sort(encs)
	sum := sha256.Sum256([]byte(strings.Join(encs, "\n")))
	if got := hex.EncodeToString(sum[:]); len(encs) != latticeAccepted || got != latticeSHA256 {
		t.Fatalf("Validate accepts %d lattice points (sha256 %s), pinned %d (%s)",
			len(encs), got, latticeAccepted, latticeSHA256)
	}
}
