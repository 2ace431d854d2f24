package sim

import "repro/internal/stats"

// systemCounters declares each machine-wide counter once. Its values are
// System fields, which at addresses: the hot path bumps the field.
var systemCounters = [...]struct {
	stats.Counter
	at func(*System) *uint64
}{
	{stats.Counter{Key: "ckpt.taken", Unit: "checkpoints", Meaning: "mid-run drain-to-quiesce checkpoints, those before a crash-resume included"},
		func(s *System) *uint64 { return &s.CheckpointsTaken }},
	{stats.Counter{Key: "warmup.insts", Unit: "insts", Meaning: "instructions fast-forwarded architecturally by Warmup before the measured region"},
		func(s *System) *uint64 { return &s.WarmedInsts }},
}

// counters renders every counter the machine reports — its own, the memory
// system's and each core's — into a run's counter map.
func (s *System) counters() map[string]uint64 {
	m := make(map[string]uint64)
	for _, r := range systemCounters {
		m[r.Key] = *r.at(s)
	}
	s.Hier.RenderCounters(m)
	for _, c := range s.Cores {
		c.RenderCounters(m)
	}
	return m
}
