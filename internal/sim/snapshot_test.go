package sim_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/event"
	"repro/internal/figures"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/workload"
)

// warmMachine builds a 1-core machine running the hmmer kernel and
// fast-forwards it n instructions.
func warmMachine(t *testing.T, n int) *sim.System {
	t.Helper()
	return simtest.WarmSystem(t, "hmmer", 0.02, n)
}

// drainedCanneal builds the 4-core canneal machine under MuonTrap, runs it
// cycles cycles of detailed simulation and drains it, leaving caches,
// filter caches, TLBs and the prefetcher populated.
func drainedCanneal(t *testing.T, cycles int) *sim.System {
	t.Helper()
	s := figures.BuildSystem(simtest.MustSpec(t, "canneal"), defense.MuonTrap(), 0.15)
	s.Step(cycles)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCheckpointRoundTripIsLossless checkpoints a machine, restores into a
// freshly assembled twin, and re-checkpoints: the two snapshots must be
// byte-identical (equal content hashes), proving Save/Restore loses
// nothing for any component. The 1-core machine has only been warmed; the
// 4-core one has run, so its filter caches are non-empty too.
func TestCheckpointRoundTripIsLossless(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, progress int) *sim.System
		run   int
	}{
		{"warmed 1-core hmmer", warmMachine, 2000},
		{"drained 4-core canneal", drainedCanneal, 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snapA, err := tc.build(t, tc.run).Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			b := tc.build(t, 0) // fresh twin
			if err := b.RestoreSnapshot(snapA); err != nil {
				t.Fatal(err)
			}
			snapB, err := b.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if snapA.Hash() != snapB.Hash() {
				t.Fatalf("round trip lost state: %s vs %s", snapA.Hash(), snapB.Hash())
			}
		})
	}
}

// TestCheckpointAllocatesAboutItsSize pins what one checkpoint costs the
// garbage collector: Save implementations reserve a section's bytes
// before filling them (see internal/checkpoint), so building the
// snapshot allocates little more than the snapshot (1.1x to 1.25x, the
// rows a machine builds at its first checkpoint included; buffers left to
// regrow allocate 5.2x, which shows up as peak RSS in checkpoint-heavy
// sweeps). By 100 000 cycles the caches hold more than twice the lines,
// and every section is still reserved once, at its measured size.
func TestCheckpointAllocatesAboutItsSize(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("the race detector's allocator overhead is counted in TotalAlloc")
	}
	for _, cycles := range []int{5_000, 100_000} {
		s := drainedCanneal(t, cycles)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := s.Checkpoint()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		size := uint64(len(snap.Encode()))
		t.Logf("after %d cycles: Checkpoint() allocated %d bytes for a %d-byte image (%.2fx)",
			cycles, alloc, size, float64(alloc)/float64(size))
		if 2*alloc > 3*size {
			t.Errorf("after %d cycles: Checkpoint() allocated %d bytes, more than 1.5x its %d-byte encoding",
				cycles, alloc, size)
		}
	}
}

// imageAllocs is what a new image allocates besides its section payloads:
// the snapshot, its index, its section list and its sort buffer. A
// checkpoint cut into one section per owner (11 sections of a 4-core
// machine) made 23 allocations, 11 payloads and 12 others.
const imageAllocs = 12

// TestCheckpointReservesExactly: every section of a populated machine's
// checkpoint is saved into a payload reserved at the size its walk
// measured — checkpoint.Snapshot.Put panics on a walk that saves another
// size, which a table whose held count disagrees with its walk, or an
// entry of another size than the first, would — and a checkpoint makes
// one allocation per section and at most imageAllocs others.
func TestCheckpointReservesExactly(t *testing.T) {
	for _, cycles := range []int{5_000, 100_000} {
		s := drainedCanneal(t, cycles)
		snap, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range snap.Names() {
			if snap.Len(name) == 0 {
				t.Errorf("after %d cycles: section %q is empty", cycles, name)
			}
		}
		if simtest.RaceEnabled {
			continue
		}
		limit := float64(len(snap.Names()) + imageAllocs)
		if n := testing.AllocsPerRun(5, func() { _, _ = s.Checkpoint() }); n > limit {
			t.Errorf("after %d cycles: Checkpoint() makes %.0f allocations for %d sections, want at most %.0f",
				cycles, n, len(snap.Names()), limit)
		}
	}
}

// TestReusedCheckpointZeroAlloc: a run takes every checkpoint into one
// image (RunUntilHaltCkpt), and once that image has reached the machine's
// size, refilling it allocates nothing — no section buffer, no sort
// buffer, no section name — and refilling it from an unchanged machine
// gives the same image.
func TestReusedCheckpointZeroAlloc(t *testing.T) {
	s := drainedCanneal(t, 100_000)
	ctx, img := context.Background(), checkpoint.New()
	if err := s.CheckpointInto(ctx, img, 0); err != nil {
		t.Fatal(err)
	}
	want := img.Hash()
	if !simtest.RaceEnabled {
		if n := testing.AllocsPerRun(5, func() {
			if err := s.CheckpointInto(ctx, img, 0); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("refilling a checkpoint makes %.0f allocations, want 0", n)
		}
	}
	if got := img.Hash(); got != want {
		t.Fatalf("refilled image %s, first fill %s", got, want)
	}
}

// TestReusedCheckpointMatchesFresh: every checkpoint a run takes into its
// one image hashes exactly as a new image (CheckpointAt) of a twin machine
// at the same cycle, over a run whose image grows from checkpoint to
// checkpoint, and the run hands its sink that one image each time.
func TestReusedCheckpointMatchesFresh(t *testing.T) {
	const cycles, every = 200_000, 5_000
	type point struct {
		cycle event.Cycle
		hash  string
	}
	ctx := context.Background()
	run := func(sink func(s *sim.System, img *checkpoint.Snapshot) point) []point {
		s := figures.BuildSystem(simtest.MustSpec(t, "canneal"), defense.MuonTrap(), 0.15)
		var got []point
		_, err := s.RunUntilHaltCkpt(ctx, cycles, every, func(img *checkpoint.Snapshot) error {
			got = append(got, sink(s, img))
			return nil
		})
		if err != nil && !strings.Contains(err.Error(), "did not complete") {
			t.Fatal(err)
		}
		return got
	}
	var first *checkpoint.Snapshot
	reused := run(func(s *sim.System, img *checkpoint.Snapshot) point {
		if first == nil {
			first = img
		} else if img != first {
			t.Fatal("the run handed its sink a second image")
		}
		return point{s.Sched.Now(), img.Hash()}
	})
	fresh := run(func(s *sim.System, _ *checkpoint.Snapshot) point {
		snap, err := s.CheckpointAt(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		return point{s.Sched.Now(), snap.Hash()}
	})
	if len(reused) != 19 || len(fresh) != len(reused) {
		t.Fatalf("%d checkpoints through the reused image and %d fresh in %d cycles at every %d, want 19",
			len(reused), len(fresh), cycles, every)
	}
	for i := range reused {
		if reused[i] != fresh[i] {
			t.Fatalf("checkpoint %d: reused image %+v, fresh image of the twin %+v", i, reused[i], fresh[i])
		}
	}
}

// TestCheckpointIsDeterministic asserts two identically warmed machines
// produce byte-identical snapshots — the property the content-addressed
// store and the disk cache keys depend on.
func TestCheckpointIsDeterministic(t *testing.T) {
	s1, err := warmMachine(t, 1500).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := warmMachine(t, 1500).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Hash() != s2.Hash() {
		t.Fatal("identical machines, different snapshots")
	}
	s3, err := warmMachine(t, 1501).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if s3.Hash() == s1.Hash() {
		t.Fatal("different warm-up depth, same snapshot")
	}
}

// TestCheckpointRequiresQuiescedMachine verifies a machine with in-flight
// pipeline state refuses to checkpoint instead of silently dropping it.
func TestCheckpointRequiresQuiescedMachine(t *testing.T) {
	s := warmMachine(t, 0)
	s.Step(3) // fetch in flight, events pending
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint of a busy machine succeeded")
	}
}

// TestRestoreRejectsMismatchedMachine verifies core-count mismatches are
// detected rather than corrupting state.
func TestRestoreRejectsMismatchedMachine(t *testing.T) {
	snap, err := warmMachine(t, 100).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	wide := sim.New(sim.DefaultConfig(2))
	prog := workload.Build(simtest.MustSpec(t, "hmmer"), 0.02)
	p := wide.NewProcess(prog)
	wide.RunOn(0, p, 0)
	wide.AddThread(p, 1, prog.Entry)
	wide.RunOn(1, p, 1)
	if err := wide.RestoreSnapshot(snap); err == nil {
		t.Fatal("restored a 1-core snapshot into a 2-core machine")
	}
}

// TestWarmupIsArchitecturallyFaithful runs a small program entirely under
// the functional warm-up executor and checks its architectural results
// (register values through memory) against the detailed pipeline's.
func TestWarmupIsArchitecturallyFaithful(t *testing.T) {
	build := func() *isa.Program {
		b := isa.NewBuilder("arch")
		buf := b.Alloc("buf", 256, 64)
		b.Li(isa.X(5), buf)
		b.Li(isa.X(6), 7)
		b.Li(isa.X(7), 9)
		b.Mul(isa.X(8), isa.X(6), isa.X(7)) // 63
		b.Store(isa.X(8), isa.X(5), 0)
		b.Load(isa.X(9), isa.X(5), 0)
		b.Addi(isa.X(9), isa.X(9), 1) // 64
		b.Store(isa.X(9), isa.X(5), 8)
		b.Halt()
		return b.MustBuild()
	}

	// Detailed run.
	det := sim.New(sim.DefaultConfig(1))
	pd := det.NewProcess(build())
	det.RunOn(0, pd, 0)
	if _, err := det.RunUntilHalt(1_000_000); err != nil {
		t.Fatal(err)
	}

	// Functional warm-up run of the same program to completion.
	fn := sim.New(sim.DefaultConfig(1))
	pf := fn.NewProcess(build())
	fn.RunOn(0, pf, 0)
	fn.Warmup(1_000_000)
	if !fn.Cores[0].Halted() {
		t.Fatal("warm-up did not reach the halt")
	}

	for _, r := range []isa.Reg{isa.X(5), isa.X(6), isa.X(7), isa.X(8), isa.X(9)} {
		if a, b := det.Cores[0].Reg(r), fn.Cores[0].Reg(r); a != b {
			t.Fatalf("reg %v: detailed %#x, warm-up %#x", r, a, b)
		}
	}
	// Memory contents must agree too.
	buf := fn.Cores[0].Reg(isa.X(5))
	pfnD, _ := pd.PT.Translate(buf >> mem.PageShift)
	pfnF, _ := pf.PT.Translate(buf >> mem.PageShift)
	for off := uint64(0); off < 16; off += 8 {
		va := buf + off
		a := det.Phys.Read64(mem.Addr(pfnD<<mem.PageShift | va%mem.PageBytes))
		b := fn.Phys.Read64(mem.Addr(pfnF<<mem.PageShift | va%mem.PageBytes))
		if a != b {
			t.Fatalf("mem[+%d]: detailed %#x, warm-up %#x", off, a, b)
		}
	}
}
