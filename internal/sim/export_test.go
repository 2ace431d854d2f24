package sim

import (
	"context"

	"repro/internal/checkpoint"
	"repro/internal/event"
	"repro/internal/stats"
)

// SystemCounterTable returns the machine-wide counter declarations, in
// table order, for the external tests.
func SystemCounterTable() []stats.Counter {
	out := make([]stats.Counter, len(systemCounters))
	for i, r := range systemCounters {
		out[i] = r.Counter
	}
	return out
}

// CheckpointInto is CheckpointAt refilling snap, as RunUntilHaltCkpt does
// at every checkpoint, for the external tests.
func (s *System) CheckpointInto(ctx context.Context, snap *checkpoint.Snapshot, base event.Cycle) error {
	return s.checkpointInto(ctx, snap, base)
}

// MachineFormat is machineFormat, for the external tests.
const MachineFormat = machineFormat

// Counters is the counter map a run would report now, for the external
// tests.
func (s *System) Counters() map[string]uint64 { return s.counters() }
