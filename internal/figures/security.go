package figures

import (
	"context"
	"fmt"
	"math"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/event"
	"repro/internal/sim"
)

// Attack cells: one scenario of the attack corpus under one scheme. They
// compile to executor Jobs like figure cells do, so they share the worker
// pool, the in-process memoization, the disk cache and — through the
// muontrap.Sweep wire type — fleet sharding; muontrap assembles them into
// the security matrix. The attack verdict rides inside
// sim.RunResult.Counters (the one payload every cache and wire layer
// already carries), encoded losslessly below.

// Counter keys carrying an attack verdict through RunResult.Counters.
const (
	attackCtrSecret  = "attack.secret"
	attackCtrLeaked  = "attack.leaked"
	attackCtrSuccess = "attack.succeeded"
	// attackCtrSignal holds math.Float64bits of the signal ratio, so the
	// float round-trips bit-exactly through every cache layer.
	attackCtrSignal  = "attack.signal_bits"
	attackCtrNumLats = "attack.latencies"
	attackCtrLat     = "attack.lat."
)

// encodeAttackResult packs an attack verdict into a RunResult.
func encodeAttackResult(r attack.Result) sim.RunResult {
	c := map[string]uint64{
		attackCtrSecret:  uint64(int64(r.Secret)),
		attackCtrLeaked:  uint64(int64(r.Leaked)),
		attackCtrSuccess: 0,
		attackCtrSignal:  math.Float64bits(r.Signal),
		attackCtrNumLats: uint64(len(r.Latencies)),
	}
	if r.Succeeded {
		c[attackCtrSuccess] = 1
	}
	for i, l := range r.Latencies {
		c[fmt.Sprintf("%s%d", attackCtrLat, i)] = uint64(l)
	}
	return sim.RunResult{Counters: c}
}

// DecodeAttackCounters unpacks an attack verdict encoded by an attack Job
// from a result's counter map. It reports false for maps that do not carry
// one (e.g. a workload cell's counters).
func DecodeAttackCounters(name string, c map[string]uint64) (attack.Result, bool) {
	n, ok := c[attackCtrNumLats]
	if !ok || n > 1<<16 {
		return attack.Result{}, false
	}
	r := attack.Result{
		Name:      name,
		Secret:    int(int64(c[attackCtrSecret])),
		Leaked:    int(int64(c[attackCtrLeaked])),
		Succeeded: c[attackCtrSuccess] == 1,
		Signal:    math.Float64frombits(c[attackCtrSignal]),
	}
	if n > 0 {
		r.Latencies = make([]event.Cycle, n)
		for i := range r.Latencies {
			l, ok := c[fmt.Sprintf("%s%d", attackCtrLat, i)]
			if !ok {
				return attack.Result{}, false
			}
			r.Latencies[i] = event.Cycle(l)
		}
	}
	return r, true
}

// AttackJob compiles one security-matrix cell — a scenario under a scheme
// — to an executor Job. The cell's cache identity is the scenario's full
// canonical encoding plus the scheme name (any spec change is a new
// experiment); sizing options that only apply to workload runs (scale,
// cycle bound, warm-up, checkpoint cadence) are cleared so attack cells
// cache under one key per (scenario, scheme, build).
func AttackJob(sc attack.Scenario, sch defense.Scheme, opt Options) Job {
	o := opt
	o.Scale, o.MaxCycles = 0, 0
	o.WarmupInsts, o.CheckpointEvery, o.Resume = 0, 0, false
	return Job{
		Scheme:  sch,
		Opt:     o,
		Series:  sch.Name,
		Work:    sc.Name,
		Attack:  sc.Name,
		subject: "attack:" + sc.Encode(),
		Custom: func(ctx context.Context) (sim.RunResult, error) {
			if err := ctx.Err(); err != nil {
				return sim.RunResult{}, err
			}
			return encodeAttackResult(attack.Run(sc, sch)), nil
		},
	}
}
