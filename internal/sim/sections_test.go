package sim_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/figures"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// midRunImage runs hmmer under sch for cycles cycles, drains it and
// checkpoints it.
func midRunImage(t *testing.T, sch defense.Scheme, cycles int) *checkpoint.Snapshot {
	t.Helper()
	s := figures.BuildSystem(simtest.MustSpec(t, "hmmer"), sch, 0.02)
	defer s.Release()
	s.Step(cycles)
	snap, err := s.CheckpointAt(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSectionsAreStructures pins what a 1-core image's sections are: one
// per structure or counter array, named after the counter keys, and a
// filter structure only on a machine that has it.
func TestSectionsAreStructures(t *testing.T) {
	shared := []string{"format", "machine", "phys", "l2", "l2.port", "dram", "pf", "hier.counters"}
	core := []string{"core0.regs", "core0.fetch", "core0.safebet.data", "core0.safebet.code", "core0.bpred", "core0.counters"}
	port := func(filters ...string) []string {
		out := []string{"core0.l1d", "core0.l1i", "core0.dtlb", "core0.itlb"}
		return append(append(out, filters...), "core0.asid", "core0.port.counters")
	}
	for _, tc := range []struct {
		scheme defense.Scheme
		want   []string
	}{
		{defense.Insecure(), slices.Concat(shared, port(), core)},
		{defense.MuonTrap(), slices.Concat(shared, port("core0.l0d", "core0.l0i", "core0.fdtlb"), core)},
		{defense.FcacheOnly(), slices.Concat(shared, port("core0.l0d", "core0.fdtlb"), core)},
	} {
		if got := midRunImage(t, tc.scheme, 2000).Names(); !slices.Equal(got, tc.want) {
			t.Errorf("%s image sections:\n got %q\nwant %q", tc.scheme.Name, got, tc.want)
		}
	}
}

// payload is a copy of the named section's payload.
func payload(t *testing.T, snap *checkpoint.Snapshot, name string) []byte {
	t.Helper()
	b := make([]byte, snap.Len(name))
	if err := snap.Get(name, func(s *checkpoint.State) { checkpoint.Raw(s, b) }); err != nil {
		t.Fatal(err)
	}
	return b
}

// withSection returns a copy of snap whose section name holds b in place
// of its own payload, is dropped when b is nil, and is added at the end
// when snap lacks it.
func withSection(t *testing.T, snap *checkpoint.Snapshot, name string, b []byte) *checkpoint.Snapshot {
	t.Helper()
	out := checkpoint.New()
	put := func(name string, b []byte) {
		if b != nil {
			out.Put(name, func(s *checkpoint.State) { checkpoint.Raw(s, b) })
		}
	}
	for _, sec := range snap.Names() {
		if sec == name {
			put(sec, b)
		} else {
			put(sec, payload(t, snap, sec))
		}
	}
	if !snap.Has(name) {
		put(name, b)
	}
	return out
}

// hmmer builds the 1-core hmmer machine under sch.
func hmmer(t *testing.T, sch defense.Scheme) *sim.System {
	return figures.BuildSystem(simtest.MustSpec(t, "hmmer"), sch, 0.02)
}

// TestRestoreReadsEverySectionWhole: a section whose walk ends before its
// payload does holds state that nothing would restore, so an image with
// four bytes appended to any one section is refused, and the error names
// that section.
func TestRestoreReadsEverySectionWhole(t *testing.T) {
	snap := midRunImage(t, defense.MuonTrap(), 3000)
	for _, name := range snap.Names() {
		long := withSection(t, snap, name, binary.LittleEndian.AppendUint32(payload(t, snap, name), 0))
		twin := hmmer(t, defense.MuonTrap())
		err := twin.RestoreSnapshot(long)
		twin.Release()
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("section %s with 4 bytes appended: restore returned %v, want an error naming the section", name, err)
		}
	}
}

// TestRestoreRefusals: a restore reads exactly the sections of the
// machine it restores into. A section no structure of this machine reads
// (a mid-run filter cache restored into a machine without filter caches,
// or a name no machine has) and a missing section of a structure that
// cannot start empty fail the restore, naming the section, before the
// machine changes. A filter structure's missing section is not an error:
// a warm image of an unprotected machine forks into a protected one, and
// runs bit-exactly as the protected machine warmed in place.
func TestRestoreRefusals(t *testing.T) {
	muontrap := midRunImage(t, defense.MuonTrap(), 3000)
	insecure := midRunImage(t, defense.Insecure(), 3000)
	for _, tc := range []struct {
		name string
		snap *checkpoint.Snapshot
		into defense.Scheme
		want string
	}{
		{"mid-run muontrap image into an insecure machine", muontrap, defense.Insecure(),
			`snapshot has a "core0.l0d" section but this machine has no such structure`},
		{"section no row reads", withSection(t, insecure, "core0.l3", []byte{1, 2, 3, 4}), defense.Insecure(),
			`snapshot has a "core0.l3" section but this machine has no such structure`},
		{"missing section of a structure that cannot start empty", withSection(t, muontrap, "core0.l1d", nil), defense.MuonTrap(),
			`snapshot has no "core0.l1d" section`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			twin := hmmer(t, tc.into)
			defer twin.Release()
			before, err := twin.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if err := twin.RestoreSnapshot(tc.snap); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore returned %v, want %q", err, tc.want)
			}
			after, err := twin.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if before.Hash() != after.Hash() {
				t.Fatal("a refused restore changed the machine")
			}
		})
	}
	t.Run("warm insecure image into a muontrap machine", func(t *testing.T) {
		const warmup, cycles = 2000, 5000
		src := hmmer(t, defense.Insecure())
		defer src.Release()
		src.Warmup(warmup)
		warm, err := src.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		forked, cold := hmmer(t, defense.MuonTrap()), hmmer(t, defense.MuonTrap())
		defer forked.Release()
		defer cold.Release()
		if err := forked.RestoreSnapshot(warm); err != nil {
			t.Fatal(err)
		}
		cold.Warmup(warmup)
		for _, s := range []*sim.System{forked, cold} {
			s.Step(cycles)
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		a, err := forked.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		b, err := cold.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Encode(), b.Encode()) {
			t.Fatalf("forked machine %s after %d cycles, warmed in place %s", a.Hash(), cycles, b.Hash())
		}
		if !a.Has("core0.l0d") || a.Len("core0.l0d") <= 4 {
			t.Fatal("the forked machine's filter cache holds nothing after the run")
		}
	})
}
