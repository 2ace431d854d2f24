package muontrap_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/muontrap"
)

func TestRunBasic(t *testing.T) {
	res, err := muontrap.NewRunner().Run(context.Background(),
		muontrap.RunSpec{Workload: "hmmer", Scheme: "muontrap", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.IPC() <= 0 {
		t.Fatal("IPC should be positive")
	}
	if res.Counters["core0.l0d.hits"] == 0 {
		t.Fatal("muontrap run should exercise the filter cache")
	}
}

func TestRunDefaultsToInsecure(t *testing.T) {
	res, err := muontrap.NewRunner().Run(context.Background(),
		muontrap.RunSpec{Workload: "hmmer", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != muontrap.SchemeInsecure {
		t.Fatalf("scheme = %q, want %q", res.Scheme, muontrap.SchemeInsecure)
	}
	if _, ok := res.Counters["core0.l0d.hits"]; ok {
		t.Fatal("default scheme should have no filter cache")
	}
}

// TestRunErrors: an unknown scheme fails a single run with its sentinel
// (the unknown-workload case is in TestSweepValidatesUpfront).
func TestRunErrors(t *testing.T) {
	_, err := muontrap.NewRunner().Run(context.Background(),
		muontrap.RunSpec{Workload: "hmmer", Scheme: "nope"})
	if !errors.Is(err, muontrap.ErrUnknownScheme) {
		t.Fatalf("err = %v, want ErrUnknownScheme", err)
	}
}

func TestRegistries(t *testing.T) {
	if len(muontrap.Workloads()) != 33 {
		t.Fatalf("expected 33 workloads, got %d", len(muontrap.Workloads()))
	}
	if len(muontrap.Schemes()) < 10 {
		t.Fatalf("expected at least 10 schemes, got %d", len(muontrap.Schemes()))
	}
	if len(muontrap.AttackNames()) != 13 {
		t.Fatalf("expected 13 attacks, got %d", len(muontrap.AttackNames()))
	}
	if len(muontrap.FigureIDs()) != 7 {
		t.Fatalf("expected 7 figures, got %d", len(muontrap.FigureIDs()))
	}
	desc := muontrap.SchemeDescriptions()
	for _, s := range muontrap.Schemes() {
		if desc[s] == "" {
			t.Fatalf("scheme %s missing description", s)
		}
	}
}

func TestTableOneMentionsKeyParameters(t *testing.T) {
	tbl := muontrap.TableOne()
	for _, want := range []string{"192-entry ROB", "64KiB", "32KiB", "2048B", "2MiB", "4 cores"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("Table 1 output missing %q:\n%s", want, tbl)
		}
	}
}

func TestAttackAPI(t *testing.T) {
	res, err := muontrap.Attack("spectre", "insecure", 9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded {
		t.Fatalf("spectre should leak on insecure: %v", res)
	}
	res, err = muontrap.Attack("spectre", "muontrap", 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded {
		t.Fatalf("spectre should be defeated by muontrap: %v", res)
	}
	if _, err := muontrap.Attack("nope", "insecure", 0); err == nil {
		t.Fatal("unknown attack should error")
	}
}

func TestFigureUnknownID(t *testing.T) {
	if _, err := muontrap.NewRunner().Figure(context.Background(), "fig99"); !errors.Is(err, muontrap.ErrUnknownFigure) {
		t.Fatalf("err = %v, want ErrUnknownFigure", err)
	}
}

func TestNewSystem(t *testing.T) {
	sys, err := muontrap.NewSystem("muontrap", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Cores) != 2 {
		t.Fatalf("expected 2 cores, got %d", len(sys.Cores))
	}
	if _, err := muontrap.NewSystem("nope", 1); err == nil {
		t.Fatal("unknown scheme should error")
	}
}
