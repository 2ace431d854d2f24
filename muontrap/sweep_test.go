package muontrap_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/muontrap"
)

// TestSweepCells pins what a declaration means: the cell list every
// consumer (Runner.Sweep, the service's job size and key, the fleet's
// shards) reads a sweep through.
func TestSweepCells(t *testing.T) {
	type (
		wl  = []muontrap.Workload
		sch = []muontrap.Scheme
		atk = []muontrap.AttackName
		sc  = []float64
	)
	cell := func(w muontrap.Workload, s muontrap.Scheme, scale float64, max int) muontrap.Sweep {
		return muontrap.Sweep{Workloads: wl{w}, Schemes: sch{s}, Scales: sc{scale}, MaxCycles: max}
	}
	attackCell := func(a muontrap.AttackName, s muontrap.Scheme, max int) muontrap.Sweep {
		return muontrap.Sweep{Attacks: atk{a}, Schemes: sch{s}, MaxCycles: max}
	}
	for _, tc := range []struct {
		name      string
		sw        muontrap.Sweep
		scale     float64
		maxCycles int
		want      []muontrap.Sweep
	}{
		{
			name:  "workload x scheme x scale, declared values win",
			sw:    muontrap.Sweep{Workloads: wl{"mcf", "hmmer"}, Schemes: sch{"muontrap", "stt-future"}, Scales: sc{0.2, 0.1}, MaxCycles: 500},
			scale: 0.05, maxCycles: 99,
			want: []muontrap.Sweep{
				cell("mcf", "muontrap", 0.2, 500), cell("mcf", "muontrap", 0.1, 500),
				cell("mcf", "stt-future", 0.2, 500), cell("mcf", "stt-future", 0.1, 500),
				cell("hmmer", "muontrap", 0.2, 500), cell("hmmer", "muontrap", 0.1, 500),
				cell("hmmer", "stt-future", 0.2, 500), cell("hmmer", "stt-future", 0.1, 500),
			},
		},
		{
			name:  "repeated workloads are repeated cells",
			sw:    muontrap.Sweep{Workloads: wl{"hmmer", "hmmer"}, Schemes: sch{"muontrap"}, Scales: sc{0.1}},
			scale: 0.05, maxCycles: 99,
			want: []muontrap.Sweep{cell("hmmer", "muontrap", 0.1, 99), cell("hmmer", "muontrap", 0.1, 99)},
		},
		{
			name:  "empty scheme is insecure, defaults from the arguments",
			sw:    muontrap.Sweep{Workloads: wl{"hmmer"}, Schemes: sch{"", "insecure"}},
			scale: 0.05, maxCycles: 99,
			want: []muontrap.Sweep{cell("hmmer", "insecure", 0.05, 99), cell("hmmer", "insecure", 0.05, 99)},
		},
		{
			name: "non-positive arguments mean the library defaults",
			sw:   muontrap.Sweep{Workloads: wl{"hmmer"}, Schemes: sch{"muontrap"}},
			want: []muontrap.Sweep{cell("hmmer", "muontrap", 0.15, 40_000_000)},
		},
		{
			name:  "attack cells follow the workload block, with no scale",
			sw:    muontrap.Sweep{Attacks: atk{"spectre", "icache"}, Workloads: wl{"hmmer"}, Schemes: sch{"", "muontrap"}, Scales: sc{0.1, 0.2}},
			scale: 0.05, maxCycles: 99,
			want: []muontrap.Sweep{
				cell("hmmer", "insecure", 0.1, 99), cell("hmmer", "insecure", 0.2, 99),
				cell("hmmer", "muontrap", 0.1, 99), cell("hmmer", "muontrap", 0.2, 99),
				attackCell("spectre", "insecure", 99), attackCell("spectre", "muontrap", 99),
				attackCell("icache", "insecure", 99), attackCell("icache", "muontrap", 99),
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := tc.sw
			got, err := tc.sw.Cells(tc.scale, tc.maxCycles)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Cells =\n%+v\nwant\n%+v", got, tc.want)
			}
			if !reflect.DeepEqual(tc.sw, before) {
				t.Fatalf("Cells rewrote the declaration: %+v, was %+v", tc.sw, before)
			}
		})
	}
}

// TestSweepCellsRefusesInvalidDeclarations: every refusal happens before
// a cell is listed, with the sentinel an unknown identifier wraps.
func TestSweepCellsRefusesInvalidDeclarations(t *testing.T) {
	hmmer := []muontrap.Workload{"hmmer"}
	muon := []muontrap.Scheme{"muontrap"}
	for _, tc := range []struct {
		name string
		sw   muontrap.Sweep
		is   error  // sentinel, or nil
		msg  string // substring when is is nil
	}{
		{"unknown workload", muontrap.Sweep{Workloads: []muontrap.Workload{"nope"}, Schemes: muon}, muontrap.ErrUnknownWorkload, ""},
		{"unknown scheme", muontrap.Sweep{Workloads: hmmer, Schemes: []muontrap.Scheme{"nope"}}, muontrap.ErrUnknownScheme, ""},
		{"unknown attack", muontrap.Sweep{Attacks: []muontrap.AttackName{"nope"}, Schemes: muon}, muontrap.ErrUnknownAttack, ""},
		{"no cells", muontrap.Sweep{Schemes: muon}, nil, "no workloads or attacks"},
		{"no schemes", muontrap.Sweep{Workloads: hmmer}, nil, "no schemes"},
		{"zero scale", muontrap.Sweep{Workloads: hmmer, Schemes: muon, Scales: []float64{0.1, 0}}, nil, "scale must be positive"},
		{"negative scale", muontrap.Sweep{Workloads: hmmer, Schemes: muon, Scales: []float64{-1}}, nil, "scale must be positive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cells, err := tc.sw.Cells(0, 0)
			if err == nil || cells != nil {
				t.Fatalf("Cells = %d cells, err %v; want a refusal", len(cells), err)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("err = %v, want one wrapping %v", err, tc.is)
			}
			if tc.is == nil && !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("err = %v, want it to say %q", err, tc.msg)
			}
		})
	}
}

// TestResolveMakesDefaultsExplicit: Resolve fills what a declaration
// leaves out and keeps what it states.
func TestResolveMakesDefaultsExplicit(t *testing.T) {
	sw := muontrap.Sweep{Workloads: []muontrap.Workload{"hmmer"}, Schemes: []muontrap.Scheme{"", "muontrap"}}
	got := sw.Resolve(0.05, 99)
	want := muontrap.Sweep{
		Workloads: []muontrap.Workload{"hmmer"}, Schemes: []muontrap.Scheme{"insecure", "muontrap"},
		Scales: []float64{0.05}, MaxCycles: 99,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Resolve = %+v, want %+v", got, want)
	}
	if sw.Schemes[0] != "" {
		t.Fatal("Resolve wrote to the declaration's scheme slice")
	}
	explicit := muontrap.Sweep{Workloads: []muontrap.Workload{"hmmer"}, Schemes: []muontrap.Scheme{"muontrap"},
		Scales: []float64{0.3}, MaxCycles: 7}
	if got := explicit.Resolve(0.05, 99); !reflect.DeepEqual(got, explicit) {
		t.Fatalf("Resolve changed an explicit sweep: %+v", got)
	}
}
