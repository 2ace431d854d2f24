package memsys

import "repro/internal/stats"

// hierCounter indexes hierCounters and the hierarchy's counter array.
type hierCounter uint8

const (
	l2Hits hierCounter = iota
	l2Misses
	dramFills
	cohNACKs
	remoteDowngrades
	filterBroadcasts
	prefetchFills
	l2Writebacks
	dramAccesses
	numHierCounters
)

// hierCounters declares each shared-level counter once.
var hierCounters = [numHierCounters]stats.Counter{
	l2Hits:           {Key: "l2.hits", Unit: "accesses", Meaning: "L2 lookups that hit"},
	l2Misses:         {Key: "l2.misses", Unit: "accesses", Meaning: "L2 lookups that missed and went to DRAM"},
	dramFills:        {Key: "dram.fills", Unit: "lines", Meaning: "lines read from DRAM for a demand access or a store upgrade"},
	cohNACKs:         {Key: "coh.nacks", Unit: "requests", Meaning: "speculative requests refused because a remote private cache owns the line (§4.5)"},
	remoteDowngrades: {Key: "coh.remote_downgrades", Unit: "lines", Meaning: "remote E/M L1D copies downgraded to S to serve another core"},
	filterBroadcasts: {Key: "coh.filter_broadcasts", Unit: "broadcasts", Meaning: "filter-cache invalidation broadcasts sent for exclusive upgrades (§4.5)"},
	prefetchFills:    {Key: "pf.fills", Unit: "lines", Meaning: "L2 fills issued by the stride prefetcher"},
	l2Writebacks:     {Key: "l2.writebacks", Unit: "lines", Meaning: "dirty L2 victims written back to DRAM"},
	dramAccesses:     {Key: "dram.accesses", Unit: "accesses", Meaning: "DRAM accesses of any kind, prefetches and writebacks included"},
}

// HierarchyCounterTable returns the shared level's counter declarations.
func HierarchyCounterTable() [numHierCounters]stats.Counter { return hierCounters }

// RenderCounters writes the shared level's counters and every port's into
// a run's counter map.
func (h *Hierarchy) RenderCounters(dst map[string]uint64) {
	for k, r := range hierCounters {
		dst[r.Key] = h.ctr[k]
	}
	for _, p := range h.ports {
		p.renderCounters(dst)
	}
}

// PortCounter indexes portCounters and the port's counter array.
type PortCounter uint8

// Port counters.
const (
	PCLoads PortCounter = iota
	PCStores
	PCIfetches
	PCL1DHits
	PCL1DMisses
	PCL1IHits
	PCL1IMisses
	PCStoreDrains
	PCStoreUpgrades
	PCCommitWrites
	PCCommitReloads
	PCSEUpgrades
	PCDomainFlushes
	PCMisspecFlushes
	PCPTWalks
	PCNACKRetries
	PCL0DHits
	PCL0DMisses
	PCL0DEvictedUncommitted
	PCL0IHits
	PCL0IMisses
	PCDTLBHits
	PCDTLBLookups
	PCITLBHits
	PCITLBLookups
	numPortCounters
)

// portCounters declares each port counter once; a run reports it under
// stats.CoreKey.
var portCounters = [numPortCounters]stats.Counter{
	PCLoads:                 {Key: "loads", Unit: "accesses", Meaning: "data load accesses issued to the port, wrong path and invisible loads included"},
	PCStores:                {Key: "stores", Unit: "stores", Meaning: "committed stores drained to the L1D"},
	PCIfetches:              {Key: "ifetches", Unit: "accesses", Meaning: "instruction-line fetches issued to the port"},
	PCL1DHits:               {Key: "l1d.hits", Unit: "accesses", Meaning: "data accesses that hit the L1D"},
	PCL1DMisses:             {Key: "l1d.misses", Unit: "accesses", Meaning: "data accesses that missed the L1D"},
	PCL1IHits:               {Key: "l1i.hits", Unit: "accesses", Meaning: "instruction fetches that hit the L1I"},
	PCL1IMisses:             {Key: "l1i.misses", Unit: "accesses", Meaning: "instruction fetches that missed the L1I"},
	PCStoreDrains:           {Key: "store.drains", Unit: "stores", Meaning: "store-buffer drains; Figure 7's denominator"},
	PCStoreUpgrades:         {Key: "store.upgrades", Unit: "stores", Meaning: "drains whose line was not already E/M in this L1D; Figure 7's numerator"},
	PCCommitWrites:          {Key: "commit.writes", Unit: "lines", Meaning: "filter lines written through to the L1D when first used by a committed load"},
	PCCommitReloads:         {Key: "commit.reloads", Unit: "lines", Meaning: "committed loads whose filter line was evicted before commit, passively reloaded into the L1D (§4.2)"},
	PCSEUpgrades:            {Key: "commit.se_upgrades", Unit: "lines", Meaning: "asynchronous SE→E upgrades launched at commit"},
	PCDomainFlushes:         {Key: "flush.domain", Unit: "flushes", Meaning: "protection-domain switches that flushed the port's filter state"},
	PCMisspecFlushes:        {Key: "flush.misspec", Unit: "flushes", Meaning: "filter flushes on a misspeculation (clear-on-misspeculate mode)"},
	PCPTWalks:               {Key: "ptwalks", Unit: "walks", Meaning: "hardware page-table walks started"},
	PCNACKRetries:           {Key: "nack.retries", Unit: "loads", Meaning: "NACKed loads reissued non-speculatively at the ROB head"},
	PCL0DHits:               {Key: "l0d.hits", Unit: "accesses", Meaning: "data accesses that hit the data filter cache", When: "Mode.L0Data"},
	PCL0DMisses:             {Key: "l0d.misses", Unit: "accesses", Meaning: "data accesses that missed the data filter cache", When: "Mode.L0Data"},
	PCL0DEvictedUncommitted: {Key: "l0d.evicted_uncommitted", Unit: "lines", Meaning: "uncommitted data filter lines displaced before commit", When: "Mode.L0Data"},
	PCL0IHits:               {Key: "l0i.hits", Unit: "accesses", Meaning: "instruction fetches that hit the instruction filter cache", When: "Mode.L0Inst"},
	PCL0IMisses:             {Key: "l0i.misses", Unit: "accesses", Meaning: "instruction fetches that missed the instruction filter cache", When: "Mode.L0Inst"},
	PCDTLBHits:              {Key: "dtlb.hits", Unit: "lookups", Meaning: "data translations that hit the main data TLB"},
	PCDTLBLookups:           {Key: "dtlb.lookups", Unit: "lookups", Meaning: "data translations looked up in the main data TLB"},
	PCITLBHits:              {Key: "itlb.hits", Unit: "lookups", Meaning: "instruction translations that hit the instruction TLB"},
	PCITLBLookups:           {Key: "itlb.lookups", Unit: "lookups", Meaning: "instruction translations looked up in the instruction TLB"},
}

// PortCounterTable returns the port's counter declarations, indexed by
// PortCounter.
func PortCounterTable() [numPortCounters]stats.Counter { return portCounters }

// Key is the counter's key in a run's counter map for the given core.
func (c PortCounter) Key(core int) string { return stats.CoreKey(core, portCounters[c].Key) }

// Stat reads one port counter; a filter-cache row reads 0 on a port
// without that filter cache.
func (p *Port) Stat(c PortCounter) uint64 { return p.ctr[c] }

// renderCounters writes the port's counters into a run's counter map: a
// row with a When only on a port that has the filter cache it names.
func (p *Port) renderCounters(dst map[string]uint64) {
	for k, r := range portCounters {
		if r.When == "Mode.L0Data" && p.l0d == nil || r.When == "Mode.L0Inst" && p.l0i == nil {
			continue
		}
		dst[stats.CoreKey(p.id, r.Key)] = p.Stat(PortCounter(k))
	}
}
