package fleet

import (
	"io/fs"
	"path/filepath"
	"time"

	"repro/internal/telemetry"
)

// fleetMetrics is the coordinator's registered metric set. The worker
// and scheduler families are all read-at-scrape functions over the same
// Stats() snapshot /v1/healthz serves — one source of truth, two
// encodings. Only the attempt-latency histograms hold their own state.
// All methods are safe on a nil receiver (metrics off).
type fleetMetrics struct {
	attemptOK     *telemetry.Histogram
	attemptFailed *telemetry.Histogram
}

func newFleetMetrics(reg *telemetry.Registry, co *Coordinator) *fleetMetrics {
	stat := func(read func(Stats) float64) func() float64 {
		return func() float64 { return read(co.Stats()) }
	}
	reg.GaugeFunc("muontrap_fleet_workers_alive",
		"Registered workers currently alive.",
		stat(func(s Stats) float64 { return float64(s.Workers) }))
	reg.GaugeFunc("muontrap_fleet_workers_suspect",
		"Alive workers whose last heartbeat is older than half the timeout.",
		stat(func(s Stats) float64 { return float64(s.SuspectWorkers) }))
	reg.GaugeFunc("muontrap_fleet_workers_dead",
		"Registered workers currently marked dead.",
		stat(func(s Stats) float64 { return float64(s.DeadWorkersNow) }))
	reg.CounterFunc("muontrap_fleet_workers_dead_total",
		"Workers marked dead over the coordinator's life.",
		stat(func(s Stats) float64 { return float64(s.DeadWorkers) }))
	reg.GaugeFunc("muontrap_fleet_cells_pending",
		"Cells of running sweeps not yet merged.",
		stat(func(s Stats) float64 { return float64(s.CellsPending) }))
	reg.CounterFunc("muontrap_fleet_dispatches_total",
		"Cell attempts started on workers.",
		stat(func(s Stats) float64 { return float64(s.Dispatched) }))
	reg.CounterFunc("muontrap_fleet_migrations_total",
		"Cells re-queued resumable after a worker failure.",
		stat(func(s Stats) float64 { return float64(s.Migrations) }))
	reg.CounterFunc("muontrap_fleet_steals_total",
		"Speculative straggler re-dispatches.",
		stat(func(s Stats) float64 { return float64(s.Steals) }))
	reg.CounterFunc("muontrap_fleet_duplicate_merges_total",
		"Cell completions discarded because the first writer already merged.",
		stat(func(s Stats) float64 { return float64(s.Duplicates) }))
	reg.GaugeFunc("muontrap_fleet_heartbeat_age_seconds",
		"Oldest heartbeat age among alive workers.",
		co.oldestHeartbeatAge)
	reg.GaugeFunc("muontrap_fleet_store_bytes",
		"Bytes held by the shared checkpoint store.",
		co.storeBytes)
	m := &fleetMetrics{
		attemptOK: reg.Histogram("muontrap_fleet_attempt_seconds",
			"Wall time of one cell attempt on a worker, by outcome.",
			telemetry.DefBuckets(), telemetry.L("outcome", "ok")),
		attemptFailed: reg.Histogram("muontrap_fleet_attempt_seconds",
			"Wall time of one cell attempt on a worker, by outcome.",
			telemetry.DefBuckets(), telemetry.L("outcome", "failed")),
	}
	return m
}

func (m *fleetMetrics) observeAttempt(started time.Time, ok bool) {
	if m == nil {
		return
	}
	sec := time.Since(started).Seconds()
	if ok {
		m.attemptOK.Observe(sec)
	} else {
		m.attemptFailed.Observe(sec)
	}
}

// oldestHeartbeatAge reports the staleness of the most out-of-date
// alive worker, in seconds; 0 with no alive workers.
func (co *Coordinator) oldestHeartbeatAge() float64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	var oldest time.Time
	for _, w := range co.workers {
		if w.dead {
			continue
		}
		if oldest.IsZero() || w.lastSeen.Before(oldest) {
			oldest = w.lastSeen
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest).Seconds()
}

// storeBytes sums the shared checkpoint store's on-disk size; 0 with no
// store. Walked at scrape time — the store holds a handful of pruned
// checkpoint blobs, not an unbounded tree.
func (co *Coordinator) storeBytes() float64 {
	if co.cfg.Dir == "" {
		return 0
	}
	var total int64
	root := filepath.Join(co.cfg.Dir, "fleet", "store")
	_ = filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return float64(total)
}

// span emits one fleet lifecycle record on the plane's tracer; a nil
// tracer drops it.
func (co *Coordinator) span(s telemetry.Span) { co.cfg.Tracer.Emit(s) }

// cellLabel compresses a cell to its workload/scheme identity for trace
// records (the full cache key is long and opaque).
func cellLabel(c *cell) string {
	if len(c.sweep.Workloads) == 1 {
		return string(c.sweep.Workloads[0]) + "/" + string(c.sweep.Schemes[0])
	}
	return c.key[:12]
}
