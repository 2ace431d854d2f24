package stats

import "strconv"

// Counter declares one simulator counter: the key a run reports it under,
// its unit, what it counts, and the configuration it is reported under.
// Each component that reports counters declares them in one table of
// these, indexed by its own counter enum; the hot path bumps the enum, and
// Save, Restore and the render into a run's counter map walk the table.
type Counter struct {
	// Key is the counter's key in a run's counter map; a per-core
	// counter's key is rendered by CoreKey.
	Key     string
	Unit    string
	Meaning string
	// When names the configuration that adds the counter to a run's
	// counter map; "" means it is always there.
	When string
}

// CoreKey is the key core i's counter key reports under in a run's counter
// map: "core<i>.<key>".
func CoreKey(i int, key string) string { return "core" + strconv.Itoa(i) + "." + key }
