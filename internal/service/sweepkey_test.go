package service_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/figures"
	"repro/internal/service"
	"repro/muontrap"
)

// TestSweepKeyBytesArePinned pins the stored-sweep key: the SHA-256 of a
// literal "sweep|v1|bin=…" string. The empty scheme is keyed as the
// insecure baseline it aliases, and unset scales and cycle bound resolve
// to the configured defaults, then to the harness defaults. Results stored
// by an earlier build of the same layout therefore still hit.
func TestSweepKeyBytesArePinned(t *testing.T) {
	fp := figures.BinFingerprint()
	hash := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}
	for _, tc := range []struct {
		name string
		cfg  service.Config
		sw   muontrap.Sweep
		want string
	}{
		{
			name: "defaults",
			sw: muontrap.Sweep{
				Workloads: []muontrap.Workload{"hmmer", "mcf"},
				Schemes:   []muontrap.Scheme{"", "muontrap"},
				Attacks:   []muontrap.AttackName{"spectre"},
			},
			want: "sweep|v1|bin=" + fp + "|wl=hmmer,mcf|atk=spectre|sch=insecure,muontrap" +
				"|scales=0.15|max=40000000|warm=0|every=0",
		},
		{
			name: "configured",
			cfg:  service.Config{Scale: 0.05, MaxCycles: 99, Warmup: 5000, CheckpointEvery: 3000},
			sw: muontrap.Sweep{
				Workloads: []muontrap.Workload{"canneal"},
				Schemes:   []muontrap.Scheme{"stt-future", ""},
			},
			want: "sweep|v1|bin=" + fp + "|wl=canneal|atk=|sch=stt-future,insecure" +
				"|scales=0.05|max=99|warm=5000|every=3000",
		},
		{
			name: "explicit",
			cfg:  service.Config{Scale: 0.05, MaxCycles: 99},
			sw: muontrap.Sweep{
				Workloads: []muontrap.Workload{"hmmer"},
				Schemes:   []muontrap.Scheme{"insecure"},
				Scales:    []float64{0.01, 1e-05, 2},
				MaxCycles: 77,
			},
			want: "sweep|v1|bin=" + fp + "|wl=hmmer|atk=|sch=insecure" +
				"|scales=0.01,1e-05,2|max=77|warm=0|every=0",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Dir = t.TempDir()
			srv, err := service.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if got, want := srv.SweepKey(tc.sw), hash(tc.want); got != want {
				t.Fatalf("SweepKey = %s, want sha256(%q) = %s", got, tc.want, want)
			}
		})
	}
}
