package memsys

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

// Mode selects which protection mechanisms are active. Zero value is the
// fully unprotected baseline.
type Mode struct {
	// L0Data adds the 1-cycle data L0. Without FilterProtect it is the
	// "insecure L0" of Figures 8/9: a plain performance cache.
	L0Data bool
	// L0Inst adds the instruction filter cache (the paper's "ifcache"
	// stage).
	L0Inst bool
	// FilterProtect turns the L0s into speculative *filter* caches:
	// speculative fills bypass L1/L2, lines carry committed bits and are
	// written through at commit, filter state is flushed on protection-
	// domain switches, and speculative hits do not perturb L1/L2
	// replacement state.
	FilterProtect bool
	// CoherenceProtect adds the §4.5 mechanisms: speculative accesses that
	// would downgrade a remote private M/E line are NACKed; filter fills
	// only take S (or SE); commit-time upgrades broadcast-invalidate other
	// filter caches. Without it (the "fcache only" stage) filter fills may
	// take E and speculative downgrades proceed — the design attacks 3 and
	// 4 defeat.
	CoherenceProtect bool
	// CommitPrefetch trains the L2 stride prefetcher only from commit-time
	// notifications (§4.6) instead of from every (speculative) L2 access.
	CommitPrefetch bool
	// FilterTLB stores speculative translations in a filter TLB moved to
	// the main TLB at commit (§4.7). Enabled with FilterProtect.
	FilterTLB bool
	// ClearOnMisspec flushes filter state on every pipeline squash (§4.9's
	// optional per-process mode).
	ClearOnMisspec bool
	// ParallelL1 looks the L1 up in parallel with the L0, removing the
	// one-cycle serialisation penalty (§6.5) at the cost of complexity.
	ParallelL1 bool
}

// Latencies groups the fixed hit/transaction latencies, in core cycles.
type Latencies struct {
	L0Hit     event.Cycle
	L1DHit    event.Cycle
	L1IHit    event.Cycle
	L2Hit     event.Cycle
	SnoopNACK event.Cycle // time for a NACKed speculative request to bounce
	RemoteWB  event.Cycle // extra time when a remote M/E line must be downgraded
	DRAMCtrl  event.Cycle // memory-controller overhead before DRAM timing
	L2Port    event.Cycle // L2 port occupancy per transaction
	MSHRRetry event.Cycle // back-off when an MSHR file is full
	Broadcast event.Cycle // filter-cache broadcast invalidation latency
}

// DefaultLatencies matches the paper's Table 1 where given, with
// conventional values for the transaction costs it leaves implicit.
func DefaultLatencies() Latencies {
	return Latencies{
		L0Hit:     1,
		L1DHit:    2,
		L1IHit:    1,
		L2Hit:     20,
		SnoopNACK: 8,
		RemoteWB:  12,
		DRAMCtrl:  6,
		L2Port:    2,
		MSHRRetry: 4,
		Broadcast: 4,
	}
}

// Config describes the whole memory system.
type Config struct {
	Cores int

	L1D      cache.Config
	L1DMSHRs int
	L1I      cache.Config
	L1IMSHRs int
	L0D      core.FilterConfig
	L0I      core.FilterConfig
	L2       cache.Config
	L2MSHRs  int

	TLBEntries       int
	FilterTLBEntries int

	DRAM     mem.DRAMConfig
	Prefetch prefetch.Config

	Lat  Latencies
	Mode Mode
}

// DefaultConfig reproduces Table 1 of the paper for n cores, with the
// unprotected baseline mode.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:            cores,
		L1D:              cache.Config{Name: "l1d", SizeBytes: 64 << 10, Assoc: 2},
		L1DMSHRs:         4,
		L1I:              cache.Config{Name: "l1i", SizeBytes: 32 << 10, Assoc: 2},
		L1IMSHRs:         4,
		L0D:              core.DefaultDataFilterConfig(),
		L0I:              core.DefaultInstFilterConfig(),
		L2:               cache.Config{Name: "l2", SizeBytes: 2 << 20, Assoc: 8},
		L2MSHRs:          16,
		TLBEntries:       64,
		FilterTLBEntries: 16,
		DRAM:             mem.DefaultDRAMConfig(),
		Prefetch:         prefetch.DefaultConfig(),
		Lat:              DefaultLatencies(),
	}
}

// FillLevel identifies where an access was satisfied.
type FillLevel uint8

// Fill levels, nearest first.
const (
	FromL0 FillLevel = iota
	FromL1
	FromL2
	FromMem
)

// AccessResult is delivered to the core when a memory access completes.
type AccessResult struct {
	// NACK reports that a speculative access was refused because it would
	// have changed a remote private cache's M/E state (§4.5). The core
	// must reissue it non-speculatively once the instruction is at the
	// head of the ROB.
	NACK bool
	// Level is where the data came from.
	Level FillLevel
}
