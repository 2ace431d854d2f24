package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"runtime"

	"repro/muontrap"
)

// The four workloads. Each is generated from the seed and handed to the
// program as plain muontrap.Sweep declarations: the seed shuffles the
// declaration order (and so the order cells reach the executor's pool),
// jitters the scale within +-0.7 % and draws the remote job sequence, but
// never changes which cells run — host time must be comparable across
// seeds, and on this simulator a cell's cost is dominated by its kernel.
const (
	wlSpec   = "spec-sweep"
	wlParsec = "parsec-sweep"
	wlCkpt   = "ckpt-matrix"
	wlRemote = "remote-jobs"
)

// comparedSchemes are the seven schemes of the paper's Fig. 3/4 comparison
// plus SafeBet.
var comparedSchemes = []muontrap.Scheme{
	"insecure", "muontrap", "invisispec-spectre", "invisispec-future",
	"stt-spectre", "stt-future", "safebet",
}

// ckptKernels are the Parsec kernels of the checkpointing matrix.
var ckptKernels = []muontrap.Workload{"blackscholes", "canneal", "ferret", "streamcluster"}

// jobKernels are the SPEC kernels of remote-jobs' small jobs: the ones whose
// machine assembles in a few milliseconds, so that a job is small and the
// transport around it, not cell construction, is what the leg measures
// (spec-sweep covers the large-footprint kernels).
var jobKernels = []muontrap.Workload{"bzip2", "calculix", "gamess", "gobmk", "gromacs", "h264ref",
	"hmmer", "namd", "povray", "sjeng", "tonto"}

// jobAttacks are the scenarios of remote-jobs' attack-row jobs: a one-core
// cache channel, a multi-core coherence channel and the prefetcher channel.
// They are fixed because a row's cost depends on its scenario's machine.
var jobAttacks = []muontrap.AttackName{"spectre", "coherenceprime", "prefetcher"}

// bulkKernels and bulkSchemes form the 16-cell bulk sweep that remote-jobs
// runs in-process, through a daemon and through a fleet.
var (
	bulkKernels = []muontrap.Workload{"astar", "bzip2", "gcc", "hmmer", "milc", "omnetpp", "soplex", "sphinx3"}
	bulkSchemes = []muontrap.Scheme{"insecure", "muontrap"}
)

// sizes holds everything that differs between the full benchmark and the
// -quick pass the tests run.
type sizes struct {
	Scale       float64 // centre of the seed's scale jitter
	MaxKernels  int     // cap on kernels per sweep (0 = all)
	MaxSchemes  int     // cap on schemes per sweep (0 = all)
	MaxAttacks  int     // cap on attack scenarios (0 = all)
	WarmProcs   int     // fresh-process re-emits per cold iteration
	JobRounds   int     // distinct small jobs per kernel per remote iteration
	JobKernels  int     // cap on kernels drawn for small jobs (0 = all of jobKernels)
	AttackJobs  int     // cap on attack-row jobs per remote iteration (0 = all of jobAttacks)
	BulkScale   float64
	BulkKernels int // cap on bulk-sweep kernels (0 = all eight)
	Fleet       int // fleet workers (0 = nproc)
	Warmup      int // ckpt-matrix: instructions fast-forwarded per kernel
	CkptEvery   int // ckpt-matrix: checkpoint cadence in simulated cycles
	SetupReps   int // process starts per set-up batch (a quarter as many daemon boots)

	// The traced pass.
	RungMS     int     // wall budget of one micro-rung repetition
	Reps       int     // repetitions of a whole-simulation rung
	SimScale   float64 // kernel scale of the sim.minsts_per_s.* rungs
	PairScale  float64 // kernel scale of the multi-core rungs
	BuildHeavy string  // kernel whose BuildSystem is timed
	TraceAll   bool    // trace every cell instead of the per-workload sample
}

func fullSizes() sizes {
	return sizes{Scale: 0.15, WarmProcs: 10, JobRounds: 10,
		BulkScale: 0.05, Warmup: 50_000, CkptEvery: 1_000, SetupReps: 8,
		RungMS: 15, Reps: 3, SimScale: 0.3, PairScale: 0.15, BuildHeavy: "mcf"}
}

func quickSizes() sizes {
	return sizes{Scale: 0.02, MaxKernels: 2, MaxSchemes: 4, MaxAttacks: 2, WarmProcs: 1,
		JobRounds: 1, JobKernels: 4, AttackJobs: 1, BulkScale: 0.02, BulkKernels: 2, Fleet: 1,
		Warmup: 2_000, CkptEvery: 1_000, SetupReps: 1,
		RungMS: 1, Reps: 1, SimScale: 0.03, PairScale: 0.02, BuildHeavy: "hmmer", TraceAll: true}
}

// nproc is the load the benchmark generates: workers and clients.
func nproc() int { return min(runtime.NumCPU(), 4) }

// sweepInput is what a sweep child receives.
type sweepInput struct {
	Workload  string         `json:"workload"`
	Sweep     muontrap.Sweep `json:"sweep"`
	Workers   int            `json:"workers"`
	CacheDir  string         `json:"cache_dir,omitempty"`
	Warmup    int            `json:"warmup,omitempty"`
	CkptEvery int            `json:"ckpt_every,omitempty"`
	Golden    string         `json:"golden,omitempty"` // security-matrix golden to compare against
	// SchemeInvariant asks the child to check that every kernel commits
	// the same instruction count under every scheme (true of single-core
	// programs: no defence changes what they compute).
	SchemeInvariant bool `json:"scheme_invariant,omitempty"`
}

func newRNG(seed uint64, workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

func shuffled[T any](r *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func capped[T any](xs []T, n int) []T {
	if n > 0 && len(xs) > n {
		return xs[:n]
	}
	return xs
}

// tighter lowers a cap (0 = none) to n.
func tighter(limit, n int) int {
	if limit == 0 || n < limit {
		return n
	}
	return limit
}

// jitter draws a scale within +-0.7 % of centre, in steps of 1/1500 of it.
func jitter(r *rand.Rand, centre float64) float64 {
	return centre * (1 + float64(r.IntN(21)-10)/1500)
}

func suite(name string) []muontrap.Workload {
	var out []muontrap.Workload
	for _, w := range muontrap.Workloads() {
		if w.Suite() == name {
			out = append(out, w)
		}
	}
	return out
}

// genSweep builds the input of one of the three sweep workloads.
func genSweep(workload string, seed uint64, sz sizes) (sweepInput, error) {
	r := newRNG(seed, workload)
	in := sweepInput{Workload: workload, Workers: nproc()}
	scale := jitter(r, sz.Scale)
	switch workload {
	case wlSpec, wlParsec:
		kernels := suite("spec2006")
		if workload == wlParsec {
			kernels = suite("parsec")
		}
		in.Sweep = muontrap.Sweep{
			Workloads: shuffled(r, capped(kernels, sz.MaxKernels)),
			Schemes:   shuffled(r, capped(comparedSchemes, sz.MaxSchemes)),
			Scales:    []float64{scale},
		}
		in.SchemeInvariant = workload == wlSpec
	case wlCkpt:
		in.Sweep = muontrap.Sweep{
			Workloads: shuffled(r, capped(ckptKernels, sz.MaxKernels)),
			Schemes:   shuffled(r, muontrap.SecuritySchemes()),
			Scales:    []float64{scale},
			Attacks:   shuffled(r, capped(muontrap.AttackNames(), sz.MaxAttacks)),
		}
		in.Warmup, in.CkptEvery = sz.Warmup, sz.CkptEvery
	default:
		return in, fmt.Errorf("%s is not a sweep workload", workload)
	}
	return in, nil
}

// remoteJob is one small job of the closed loop.
type remoteJob struct {
	Kind  string         `json:"kind"` // "sweep" or "attack"
	Sweep muontrap.Sweep `json:"sweep"`
}

// remoteInput is what a remote-jobs child receives.
type remoteInput struct {
	Daemon   string         `json:"daemon"` // muontrapd binary
	Clients  [][]remoteJob  `json:"clients"`
	Bulk     muontrap.Sweep `json:"bulk"`
	Fleet    int            `json:"fleet"`   // workers behind the coordinator
	Workers  int            `json:"workers"` // in-process bulk workers
	Metrics  bool           `json:"metrics"` // run the small-job daemon with -metrics
	OpTimeoS float64        `json:"op_timeout_s"`
}

// genRemote draws the remote job sequence: every kernel of jobKernels
// JobRounds times as a distinct two-cell sweep (insecure and muontrap at
// its own scale, so no two are the same computation) and one row per
// scenario of jobAttacks across the compared schemes; shuffled, then dealt
// round-robin to the clients.
func genRemote(seed uint64, sz sizes, daemonBin string) remoteInput {
	r := newRNG(seed, wlRemote)
	var jobs []remoteJob
	for round := 0; round < sz.JobRounds; round++ {
		for _, k := range capped(jobKernels, sz.JobKernels) {
			// Round n draws from 0.020+0.003n .. 0.0225+0.003n: a kernel's
			// rounds never repeat a computation, whatever the seed.
			scale := 0.020 + 0.0001*float64(r.IntN(26)) + 0.003*float64(round)
			jobs = append(jobs, remoteJob{Kind: "sweep", Sweep: muontrap.Sweep{
				Workloads: []muontrap.Workload{k},
				Schemes:   []muontrap.Scheme{"insecure", "muontrap"},
				Scales:    []float64{scale},
			}})
		}
	}
	for _, a := range capped(jobAttacks, sz.AttackJobs) {
		jobs = append(jobs, remoteJob{Kind: "attack", Sweep: muontrap.Sweep{
			Attacks: []muontrap.AttackName{a},
			Schemes: comparedSchemes,
		}})
	}
	jobs = shuffled(r, jobs)
	clients := make([][]remoteJob, nproc())
	for i, j := range jobs {
		clients[i%len(clients)] = append(clients[i%len(clients)], j)
	}
	fleet := sz.Fleet
	if fleet == 0 {
		fleet = nproc()
	}
	return remoteInput{
		Daemon:  daemonBin,
		Clients: clients,
		Bulk: muontrap.Sweep{
			Workloads: shuffled(r, capped(bulkKernels, sz.BulkKernels)),
			Schemes:   shuffled(r, bulkSchemes),
			Scales:    []float64{sz.BulkScale},
		},
		Fleet:    fleet,
		Workers:  nproc(),
		OpTimeoS: 60,
	}
}
