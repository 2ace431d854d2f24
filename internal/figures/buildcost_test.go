package figures

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/defense"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/simtest"
	"repro/internal/workload"
)

// nonZeroFrames counts the pages of a program's data segments that hold a
// non-zero initial byte: the frames a load has any reason to back.
func nonZeroFrames(prog *isa.Program) int {
	pages := mem.NewPhysical() // indexed by virtual address: same page split
	for _, seg := range prog.Data {
		for i, v := range seg.Bytes {
			if v != 0 {
				pages.Write8(mem.Addr(seg.Base)+mem.Addr(i), v)
			}
		}
	}
	return pages.FrameCount()
}

// TestBuildSystemCostFollowsInitialisedData pins cell construction to the
// bytes a program initialises to something other than zero, on the
// largest-footprint SPEC kernel (mcf: 16 MiB working set, all zero-fill).
// Storing the working set's zeroes — 8225 frames and ~70 MB allocated per
// cell before zero-fill segments — is a regression this test fails on.
func TestBuildSystemCostFollowsInitialisedData(t *testing.T) {
	spec := simtest.MustSpec(t, "mcf")
	const budget = 4 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys := BuildSystem(spec, defense.MuonTrap(), 0.15)
	runtime.ReadMemStats(&after)

	if got, want := sys.Phys.FrameCount(), nonZeroFrames(workload.Build(spec, 0.15)); got != want {
		t.Errorf("BuildSystem(mcf) backed %d frames, want %d (the frames holding non-zero initial data)", got, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("BuildSystem(mcf) allocated %d bytes, budget %d", got, budget)
	}
}

// TestCellCostFollowsWhatItTouches is the host-independent allocation gate
// for a whole cell — build, run, release — as the figure sweeps run it:
// once a first row has handed its tables and its pipeline back, a cell
// allocates what it touches (its program, its page-table extents, the
// directory entries of its run), not the machine's geometry or its
// instruction window. The parent of the recycler allocated 2.4 MB per cell
// here, half of it the L2's line array, and the parent of the borrowed
// pipeline 461 KB; a new per-cell allocation of either kind fails this
// test in the PR that adds it. The collector is off while the measured
// rows run: a collection empties the pools, and the cells after it would
// allocate what they would otherwise borrow.
func TestCellCostFollowsWhatItTouches(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("the race detector's allocator overhead is counted in TotalAlloc")
	}
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	const budget = 384 << 10 // per cell
	opt := DefaultOptions()
	schemes := append([]defense.Scheme{defense.Insecure(), defense.SafeBet()}, defense.Comparison()...)
	row := func(name string) {
		spec := simtest.MustSpec(t, name)
		for _, sch := range schemes {
			if _, err := RunOne(context.Background(), spec, sch, opt); err != nil {
				t.Fatalf("%s/%s: %v", name, sch.Name, err)
			}
		}
	}
	row("gcc") // primes the recycler
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	row("hmmer")
	row("gcc")
	runtime.ReadMemStats(&after)
	perCell := (after.TotalAlloc - before.TotalAlloc) / uint64(2*len(schemes))
	t.Logf("%d cells, %d bytes allocated per cell", 2*len(schemes), perCell)
	if perCell > budget {
		t.Errorf("a build-run-release cell allocated %d bytes, budget %d", perCell, budget)
	}
}
