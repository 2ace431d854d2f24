package cpu

import "repro/internal/stats"

// Counter names one of a core's counters: an index into the core's counter
// array and into counters, the table that declares it.
type Counter uint8

const (
	Committed Counter = iota
	Fetched
	Squashed
	Mispredicts
	LoadNACKs
	Syscalls
	Exposures
	STTStalls
	SafeBetStalls
	numCounters
)

// counters declares each core counter once; a run reports it under
// stats.CoreKey.
var counters = [numCounters]stats.Counter{
	Committed:     {Key: "committed", Unit: "insts", Meaning: "instructions committed in the measured region"},
	Fetched:       {Key: "fetched", Unit: "insts", Meaning: "instructions fetched into the ROB, wrong path included"},
	Squashed:      {Key: "squashed", Unit: "insts", Meaning: "fetched instructions squashed by an older mispredicted branch"},
	Mispredicts:   {Key: "mispredicts", Unit: "branches", Meaning: "control instructions that resolved to a different next pc than predicted"},
	LoadNACKs:     {Key: "nacks", Unit: "loads", Meaning: "speculative load attempts refused by a remote owner (§4.5) and retried at the ROB head"},
	Syscalls:      {Key: "syscalls", Unit: "insts", Meaning: "committed syscalls, each a protection-domain switch"},
	Exposures:     {Key: "exposures", Unit: "loads", Meaning: "invisible loads replayed as normal accesses once safe (InvisiSpec expose/validate)"},
	STTStalls:     {Key: "stt_stalls", Unit: "inst-cycles", Meaning: "cycles a tainted transmitter waited at issue, summed over transmitters (STT)"},
	SafeBetStalls: {Key: "safebet_stalls", Unit: "attempts", Meaning: "per-cycle load and fetch attempts held outside the committed footprint (SafeBet)"},
}

// CounterTable returns the core's counter declarations, indexed by Counter.
func CounterTable() [numCounters]stats.Counter { return counters }

// Count reads one counter.
func (c *Core) Count(k Counter) uint64 { return c.ctr[k] }

// RenderCounters writes every core counter into a run's counter map.
func (c *Core) RenderCounters(dst map[string]uint64) {
	for k, v := range c.ctr {
		dst[stats.CoreKey(c.id, counters[k].Key)] = v
	}
}
