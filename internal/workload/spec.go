package workload

import "sync"

// Pattern is the dominant data-access pattern of a kernel.
type Pattern uint8

// Access patterns.
const (
	// PatternStream walks MLP independent sequential streams.
	PatternStream Pattern = iota
	// PatternConflict walks streams whose stride aliases cache sets
	// (power-of-two strides), stressing associativity.
	PatternConflict
	// PatternRandom computes load addresses from an LCG (no dependence).
	PatternRandom
	// PatternChase follows a pointer chain (each address depends on the
	// previous load's value).
	PatternChase
	// PatternLocal re-touches a small hot region with high temporal
	// locality.
	PatternLocal
)

// Spec parameterises one synthetic benchmark kernel.
type Spec struct {
	Name  string
	Suite string // "spec2006" or "parsec"

	Pattern      Pattern
	WorkingSetKB int   // private data footprint
	StrideBytes  int64 // stream stride (PatternStream/Conflict)
	MLP          int   // independent access streams per iteration
	StoreFrac    int   // one store per this many loads (0 = none)
	// StoreStreams routes stores to a dedicated write-only stream region
	// (like lbm's separate source/destination lattices) instead of the
	// loaded addresses — such lines are never exclusive in the L1 when
	// the store drains, producing the high broadcast rates of Figure 7.
	StoreStreams bool
	ALUPerMem    int  // dependent int-ALU ops per memory op
	FPOps        int  // FP ops per iteration
	MulDiv       bool // include multiply/divide in the ALU mix
	BranchRandom bool // data-dependent unpredictable branch each iter
	// ColdBranch sources the branch condition from a cold region so
	// resolution waits on DRAM — the astar/omnetpp/mcf pattern that makes
	// load-restriction defenses expensive.
	ColdBranch   bool
	CodeKB       int // instruction footprint exercised via calls
	SyscallEvery int // iterations between syscalls (0 = none)
	Iterations   int // main-loop trip count at scale 1.0

	// Parsec-only knobs.
	SharedKB   int  // shared-array footprint (0 = thread-private only)
	LockEvery  int  // iterations between lock/unlock critical sections
	WriteShare bool // threads store to the shared array (coherence traffic)
}

// SPEC2006 returns the 26 SPEC CPU2006 kernels of Figure 3/7/9, in the
// paper's x-axis order.
func SPEC2006() []Spec {
	return []Spec{
		// astar: path-finding; pointer chasing over a moderate working set
		// with unpredictable branches — hurt badly by load-restriction
		// schemes (STT), mildly by MuonTrap.
		{Name: "astar", Suite: "spec2006", Pattern: PatternChase, WorkingSetKB: 4096,
			MLP: 2, ALUPerMem: 3, BranchRandom: true, CodeKB: 3, Iterations: 2600, StoreFrac: 8, SyscallEvery: 1200, ColdBranch: true},
		// bwaves: high-MLP streaming over a large set — thrashes the small
		// filter cache (uncommitted evictions) and spikes on InvisiSpec.
		{Name: "bwaves", Suite: "spec2006", Pattern: PatternStream, WorkingSetKB: 16384,
			StrideBytes: 64, MLP: 12, ALUPerMem: 1, FPOps: 2, CodeKB: 2, Iterations: 1500, StoreFrac: 3, SyscallEvery: 900, StoreStreams: true},
		// bzip2: mixed integer compression; moderate locality.
		{Name: "bzip2", Suite: "spec2006", Pattern: PatternLocal, WorkingSetKB: 256,
			MLP: 2, ALUPerMem: 4, BranchRandom: true, CodeKB: 3, Iterations: 3200, StoreFrac: 4, SyscallEvery: 1500},
		// cactusADM: power-of-two strided stencil — set-conflict misses in
		// the 4-way filter cache plus prefetch-timeliness sensitivity.
		{Name: "cactusADM", Suite: "spec2006", Pattern: PatternConflict, WorkingSetKB: 8192,
			StrideBytes: 512, MLP: 6, ALUPerMem: 2, FPOps: 3, CodeKB: 2, Iterations: 1800, StoreFrac: 4, SyscallEvery: 1000},
		// calculix: FP solver, mostly cache-resident.
		{Name: "calculix", Suite: "spec2006", Pattern: PatternLocal, WorkingSetKB: 512,
			MLP: 2, ALUPerMem: 3, FPOps: 4, MulDiv: true, CodeKB: 4, Iterations: 2400, StoreFrac: 6, SyscallEvery: 1500},
		// gamess: compute-bound quantum chemistry; tiny memory footprint.
		{Name: "gamess", Suite: "spec2006", Pattern: PatternLocal, WorkingSetKB: 128,
			MLP: 1, ALUPerMem: 5, FPOps: 5, MulDiv: true, CodeKB: 4, Iterations: 2400, SyscallEvery: 2000},
		// gcc: pointer-heavy with a large code footprint and many stores —
		// one of the Figure 7 broadcast-heavy workloads.
		{Name: "gcc", Suite: "spec2006", Pattern: PatternRandom, WorkingSetKB: 2048,
			MLP: 3, ALUPerMem: 3, BranchRandom: true, CodeKB: 8, Iterations: 2200, StoreFrac: 2, SyscallEvery: 800, StoreStreams: true},
		// GemsFDTD: streaming FP stencil.
		{Name: "GemsFDTD", Suite: "spec2006", Pattern: PatternStream, WorkingSetKB: 8192,
			StrideBytes: 64, MLP: 6, ALUPerMem: 2, FPOps: 3, CodeKB: 2, Iterations: 1800, StoreFrac: 4, SyscallEvery: 1000},
		// gobmk: branchy game tree search, moderate code footprint.
		{Name: "gobmk", Suite: "spec2006", Pattern: PatternLocal, WorkingSetKB: 512,
			MLP: 2, ALUPerMem: 4, BranchRandom: true, CodeKB: 6, Iterations: 2600, StoreFrac: 6, SyscallEvery: 1500},
		// gromacs: molecular dynamics, small hot set, FP-heavy.
		{Name: "gromacs", Suite: "spec2006", Pattern: PatternLocal, WorkingSetKB: 256,
			MLP: 2, ALUPerMem: 3, FPOps: 4, CodeKB: 3, Iterations: 2400, StoreFrac: 6, SyscallEvery: 1800},
		// h264ref: video encoder; strided access with good locality.
		{Name: "h264ref", Suite: "spec2006", Pattern: PatternStream, WorkingSetKB: 1024,
			StrideBytes: 64, MLP: 3, ALUPerMem: 4, CodeKB: 4, Iterations: 2400, StoreFrac: 4, SyscallEvery: 1200},
		// hmmer: dynamic programming over small tables.
		{Name: "hmmer", Suite: "spec2006", Pattern: PatternLocal, WorkingSetKB: 128,
			MLP: 2, ALUPerMem: 5, CodeKB: 2, Iterations: 2800, StoreFrac: 5, SyscallEvery: 2000},
		// lbm: few long store-heavy streams — the prefetcher is decisive
		// and commit-time (in-order) training *helps*; also Figure 7 heavy.
		{Name: "lbm", Suite: "spec2006", Pattern: PatternStream, WorkingSetKB: 16384,
			StrideBytes: 128, MLP: 8, ALUPerMem: 1, FPOps: 1, CodeKB: 1, Iterations: 1600, StoreFrac: 2, SyscallEvery: 900, StoreStreams: true},
		// leslie3d: streaming stencil whose performance rides on prefetch
		// timeliness — commit-time training hurts.
		{Name: "leslie3d", Suite: "spec2006", Pattern: PatternStream, WorkingSetKB: 8192,
			StrideBytes: 64, MLP: 4, ALUPerMem: 2, FPOps: 3, CodeKB: 2, Iterations: 2000, StoreFrac: 5, SyscallEvery: 1000},
		// libquantum: single long stream, prefetch-critical, store-heavy.
		{Name: "libquantum", Suite: "spec2006", Pattern: PatternStream, WorkingSetKB: 16384,
			StrideBytes: 64, MLP: 2, ALUPerMem: 2, CodeKB: 1, Iterations: 2400, StoreFrac: 2, SyscallEvery: 1200, StoreStreams: true},
		// mcf: pointer chasing over a huge set with stores — DRAM bound.
		{Name: "mcf", Suite: "spec2006", Pattern: PatternChase, WorkingSetKB: 16384,
			MLP: 2, ALUPerMem: 2, BranchRandom: true, CodeKB: 2, Iterations: 2000, StoreFrac: 3, SyscallEvery: 1000, StoreStreams: true, ColdBranch: true},
		// milc: strided FP lattice QCD.
		{Name: "milc", Suite: "spec2006", Pattern: PatternStream, WorkingSetKB: 8192,
			StrideBytes: 128, MLP: 4, ALUPerMem: 2, FPOps: 3, CodeKB: 2, Iterations: 1800, StoreFrac: 4, SyscallEvery: 1000},
		// namd: FP compute with a code footprint beyond the 2KiB L0i —
		// takes the instruction-filter penalty in Figure 9.
		{Name: "namd", Suite: "spec2006", Pattern: PatternLocal, WorkingSetKB: 512,
			MLP: 2, ALUPerMem: 3, FPOps: 5, MulDiv: true, CodeKB: 10, Iterations: 2200, StoreFrac: 8, SyscallEvery: 1800},
		// omnetpp: discrete-event simulator — pointer chasing plus a large
		// code footprint; hurt by the instruction filter cache and by STT.
		{Name: "omnetpp", Suite: "spec2006", Pattern: PatternChase, WorkingSetKB: 8192,
			MLP: 2, ALUPerMem: 2, BranchRandom: true, CodeKB: 12, Iterations: 2000, StoreFrac: 4, SyscallEvery: 900, ColdBranch: true},
		// povray: small hot working set with very high temporal locality —
		// the 1-cycle L0 is a straight win.
		{Name: "povray", Suite: "spec2006", Pattern: PatternLocal, WorkingSetKB: 64,
			MLP: 2, ALUPerMem: 3, FPOps: 3, MulDiv: true, CodeKB: 2, Iterations: 2800, StoreFrac: 8, SyscallEvery: 2000},
		// sjeng: chess search; code footprint over the L0i plus random
		// branches.
		{Name: "sjeng", Suite: "spec2006", Pattern: PatternLocal, WorkingSetKB: 1024,
			MLP: 2, ALUPerMem: 4, BranchRandom: true, CodeKB: 10, Iterations: 2200, StoreFrac: 6, SyscallEvery: 1500},
		// soplex: sparse linear programming; mixed strided/random.
		{Name: "soplex", Suite: "spec2006", Pattern: PatternRandom, WorkingSetKB: 4096,
			MLP: 3, ALUPerMem: 2, FPOps: 2, CodeKB: 4, Iterations: 2000, StoreFrac: 4, SyscallEvery: 1200},
		// sphinx3: speech model evaluation; streaming with FP.
		{Name: "sphinx3", Suite: "spec2006", Pattern: PatternStream, WorkingSetKB: 2048,
			StrideBytes: 64, MLP: 3, ALUPerMem: 3, FPOps: 3, CodeKB: 3, Iterations: 2200, StoreFrac: 5, SyscallEvery: 1200},
		// tonto: quantum chemistry, compute bound.
		{Name: "tonto", Suite: "spec2006", Pattern: PatternLocal, WorkingSetKB: 256,
			MLP: 2, ALUPerMem: 4, FPOps: 4, MulDiv: true, CodeKB: 5, Iterations: 2200, StoreFrac: 7, SyscallEvery: 1800},
		// xalancbmk: XML transformation; pointer-heavy, big code.
		{Name: "xalancbmk", Suite: "spec2006", Pattern: PatternChase, WorkingSetKB: 4096,
			MLP: 2, ALUPerMem: 3, BranchRandom: true, CodeKB: 8, Iterations: 2000, StoreFrac: 5, SyscallEvery: 1000, ColdBranch: true},
		// zeusmp: strided FP with heavy streaming stores — combines the
		// filter-size, prefetch and broadcast costs (worst case in Fig 3).
		{Name: "zeusmp", Suite: "spec2006", Pattern: PatternConflict, WorkingSetKB: 8192,
			StrideBytes: 1024, MLP: 8, ALUPerMem: 1, FPOps: 2, CodeKB: 3, Iterations: 1600, StoreFrac: 2, SyscallEvery: 800, StoreStreams: true},
	}
}

// Parsec returns the 7 Parsec kernels of Figures 4/5/6/8, run with 4
// threads on 4 cores.
func Parsec() []Spec {
	return []Spec{
		// blackscholes: embarrassingly parallel FP over a small per-thread
		// set; power-of-two layout makes it associativity-sensitive (Fig 6).
		{Name: "blackscholes", Suite: "parsec", Pattern: PatternConflict, WorkingSetKB: 128,
			StrideBytes: 512, MLP: 3, ALUPerMem: 3, FPOps: 4, MulDiv: true, CodeKB: 1,
			Iterations: 1500, StoreFrac: 6, SharedKB: 64, SyscallEvery: 700},
		// canneal: random accesses over a large shared set with swaps
		// (stores) — cache-hostile; associativity-sensitive.
		{Name: "canneal", Suite: "parsec", Pattern: PatternRandom, WorkingSetKB: 2048,
			MLP: 3, ALUPerMem: 2, BranchRandom: true, CodeKB: 1, Iterations: 1300,
			StoreFrac: 6, SharedKB: 4096, StoreStreams: true, SyscallEvery: 600},
		// ferret: similarity search pipeline — lock-heavy with shared
		// writes, the coherence-sensitive case of Figure 8.
		{Name: "ferret", Suite: "parsec", Pattern: PatternLocal, WorkingSetKB: 512,
			MLP: 2, ALUPerMem: 3, FPOps: 2, CodeKB: 2, Iterations: 1400,
			StoreFrac: 4, SharedKB: 1024, LockEvery: 6, WriteShare: true, SyscallEvery: 500},
		// fluidanimate: strided particle grid with locks; associativity-
		// sensitive and takes the Figure 8 ifcache penalty.
		{Name: "fluidanimate", Suite: "parsec", Pattern: PatternConflict, WorkingSetKB: 1024,
			StrideBytes: 512, MLP: 4, ALUPerMem: 2, FPOps: 3, CodeKB: 6, Iterations: 1400,
			StoreFrac: 4, SharedKB: 512, LockEvery: 10, SyscallEvery: 600},
		// freqmine: tree mining with high MLP over a big set — blows up
		// with tiny filter caches (Figure 5).
		{Name: "freqmine", Suite: "parsec", Pattern: PatternStream, WorkingSetKB: 4096,
			StrideBytes: 64, MLP: 10, ALUPerMem: 2, CodeKB: 2, Iterations: 1200,
			StoreFrac: 4, SharedKB: 1024, SyscallEvery: 600},
		// streamcluster: streaming distance computations over shared
		// points with high MLP and shared writes — the other Figure 5
		// blow-up and a Figure 8 coherence case.
		{Name: "streamcluster", Suite: "parsec", Pattern: PatternStream, WorkingSetKB: 4096,
			StrideBytes: 64, MLP: 12, ALUPerMem: 1, FPOps: 2, CodeKB: 1, Iterations: 1200,
			StoreFrac: 3, SharedKB: 2048, LockEvery: 8, WriteShare: true, SyscallEvery: 500},
		// swaptions: Monte-Carlo pricing — compute bound, tiny set.
		{Name: "swaptions", Suite: "parsec", Pattern: PatternLocal, WorkingSetKB: 64,
			MLP: 1, ALUPerMem: 4, FPOps: 5, MulDiv: true, CodeKB: 1, Iterations: 1600,
			StoreFrac: 8, SharedKB: 64, SyscallEvery: 800},
	}
}

// byName indexes both suites by kernel name, built once. A Spec is a
// value, so what ByName returns is the caller's own copy.
var byName = sync.OnceValue(func() map[string]Spec {
	m := make(map[string]Spec)
	for _, s := range append(SPEC2006(), Parsec()...) {
		m[s.Name] = s // names are unique across both suites
	}
	return m
})

// ByName looks a benchmark up in either suite.
func ByName(name string) (Spec, bool) {
	s, ok := byName()[name]
	return s, ok
}

// Names lists the names of a suite in order.
func Names(specs []Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}
