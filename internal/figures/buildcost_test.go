package figures

import (
	"runtime"
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
