package sim

import "repro/internal/stats"

// SystemCounterTable returns the machine-wide counter declarations, in
// table order, for the external tests.
func SystemCounterTable() []stats.Counter {
	out := make([]stats.Counter, len(systemCounters))
	for i, r := range systemCounters {
		out[i] = r.Counter
	}
	return out
}
