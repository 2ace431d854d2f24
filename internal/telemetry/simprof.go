package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Sim profiling hooks. The simulator's cycle loop is allocation-free
// and deterministic; profiling therefore never touches it directly.
// Instead three observation points outside the loop feed a SimProfiler:
//
//   - run completion (internal/figures): whole-run sim-insts/s and
//     cycles-per-host-second per scheme, plus cell wall time;
//   - checkpoint drain boundaries (internal/sim.RunUntilHaltCkpt):
//     event-queue depth, sampled only where the machine is already
//     quiescing — cost is one nil-check in the un-profiled case;
//   - cache lookups (internal/figures.cachedRun): hit/miss per layer.
//
// The profiler is process-global and opt-in: nothing is installed until
// EnableSimProfiling runs, so golden determinism tests and the 0-alloc
// regression tests see byte-identical behaviour.

// SimProfiler aggregates simulator throughput and cache statistics.
// All methods are safe for concurrent use and are no-ops on a nil
// receiver, so instrumentation sites call unconditionally.
type SimProfiler struct {
	reg *Registry

	queueDepth  *Histogram
	cellSecs    *Histogram
	cacheHit    [2]*Counter // indexed by cacheLayer
	cacheMiss   [2]*Counter
	totalInsts  *Counter
	totalCycles *Counter

	mu      sync.Mutex
	schemes map[string]*schemeSeries
}

// schemeSeries is the per-scheme throughput pair, created lazily the
// first time a scheme completes a run (run completion is off the hot
// path, so the lazy-registration mutex is harmless).
type schemeSeries struct {
	instsPerSec      *Histogram
	cyclesPerHostSec *Histogram
}

// CacheLayer identifies which memoization tier a lookup hit.
type CacheLayer int

const (
	// CacheMemory is the in-process singleflight result memo.
	CacheMemory CacheLayer = iota
	// CacheDisk is the fingerprint-keyed on-disk result cache.
	CacheDisk
)

func (l CacheLayer) String() string {
	if l == CacheMemory {
		return "memory"
	}
	return "disk"
}

// active is the process-global profiler; nil until EnableSimProfiling.
var active atomic.Pointer[SimProfiler]

// EnableSimProfiling constructs a SimProfiler registered on reg and
// installs it as the process-global profiler returned by
// ActiveSimProfiler. Call once at daemon startup when -metrics is set.
func EnableSimProfiling(reg *Registry) *SimProfiler {
	p := &SimProfiler{
		reg:     reg,
		schemes: make(map[string]*schemeSeries),
		queueDepth: reg.Histogram("muontrap_sim_event_queue_depth",
			"Event-queue depth sampled at checkpoint drain boundaries.",
			ExpBuckets(1, 2, 12)),
		cellSecs: reg.Histogram("muontrap_sim_cell_seconds",
			"Wall time to produce one sweep cell (workload x scheme), including cache hits.",
			DefBuckets()),
		totalInsts: reg.Counter("muontrap_sim_insts_total",
			"Total simulated instructions across completed runs."),
		totalCycles: reg.Counter("muontrap_sim_cycles_total",
			"Total simulated cycles across completed runs."),
	}
	for _, l := range []CacheLayer{CacheMemory, CacheDisk} {
		p.cacheHit[l] = reg.Counter("muontrap_sim_cache_hits_total",
			"Result-cache hits by layer.", L("layer", l.String()))
		p.cacheMiss[l] = reg.Counter("muontrap_sim_cache_misses_total",
			"Result-cache misses by layer.", L("layer", l.String()))
	}
	active.Store(p)
	return p
}

// DisableSimProfiling clears the process-global profiler (test seam).
func DisableSimProfiling() { active.Store(nil) }

// ActiveSimProfiler returns the installed profiler, or nil when
// profiling is off. The nil result is safe to call methods on.
func ActiveSimProfiler() *SimProfiler { return active.Load() }

// forScheme returns the per-scheme series, creating and registering it
// on first use.
func (p *SimProfiler) forScheme(scheme string) *schemeSeries {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.schemes[scheme]
	if s == nil {
		s = &schemeSeries{
			instsPerSec: p.reg.Histogram("muontrap_sim_insts_per_second",
				"Simulated instructions per host second, per completed run.",
				ExpBuckets(1e4, 2, 20), L("scheme", scheme)),
			cyclesPerHostSec: p.reg.Histogram("muontrap_sim_cycles_per_host_second",
				"Simulated cycles per host second, per completed run.",
				ExpBuckets(1e4, 2, 20), L("scheme", scheme)),
		}
		p.schemes[scheme] = s
	}
	return s
}

// RecordRun records one completed simulation run: simulated cycle and
// instruction totals and the host wall time it took. Called once per
// run from the figure executor — never from the cycle loop.
func (p *SimProfiler) RecordRun(scheme string, cycles, insts uint64, host time.Duration) {
	if p == nil || host <= 0 {
		return
	}
	sec := host.Seconds()
	s := p.forScheme(scheme)
	s.instsPerSec.Observe(float64(insts) / sec)
	s.cyclesPerHostSec.Observe(float64(cycles) / sec)
	p.totalInsts.Add(insts)
	p.totalCycles.Add(cycles)
}

// RecordQueueDepth records the scheduler's pending-event count at a
// checkpoint drain boundary.
func (p *SimProfiler) RecordQueueDepth(depth int) {
	if p == nil {
		return
	}
	p.queueDepth.Observe(float64(depth))
}

// RecordCellSeconds records the wall time one sweep cell took to
// produce (cache hits included — they resolve in microseconds and land
// in the lowest bucket, making the hit/miss split visible in the
// latency shape too).
func (p *SimProfiler) RecordCellSeconds(sec float64) {
	if p == nil {
		return
	}
	p.cellSecs.Observe(sec)
}

// RecordCacheEvent counts one result-cache lookup outcome.
func (p *SimProfiler) RecordCacheEvent(layer CacheLayer, hit bool) {
	if p == nil {
		return
	}
	if hit {
		p.cacheHit[layer].Inc()
	} else {
		p.cacheMiss[layer].Inc()
	}
}
