package cpu

import "repro/internal/mem"

// SafeBet (Ainsworth-adjacent related work, PAPERS.md): a speculative load
// may access the memory system only if its line was previously touched
// non-speculatively by the same protection domain — the committed-footprint
// check. Loads outside the footprint wait until they are no longer
// squashable by an unresolved branch; speculative instruction fetches to
// lines outside the committed code footprint likewise stall until control
// flow resolves. The footprints are cleared on every protection-domain
// switch, so one domain's accesses can never pre-authorise another's.
//
// The model tracks two per-core sets keyed by line address: data lines
// (physical, inserted when a load/store commits) and code lines (virtual,
// inserted when an instruction commits). Both are nil except under
// DefenseSafeBet, keeping the defenseless hot path allocation-free.

func (c *Core) safeBetActive() bool { return c.cfg.Defense == DefenseSafeBet }

// sbDataHit reports whether a data line is in the committed footprint.
func (c *Core) sbDataHit(pa mem.Addr) bool {
	_, ok := c.sbData[mem.LineAddr(pa)]
	return ok
}

// sbCodeHit reports whether a code line (virtual) is in the footprint.
func (c *Core) sbCodeHit(lineVA uint64) bool {
	_, ok := c.sbCode[lineVA]
	return ok
}

func (c *Core) sbInsertData(pa mem.Addr) {
	if c.sbData == nil {
		c.sbData = make(map[mem.Addr]struct{})
	}
	c.sbData[mem.LineAddr(pa)] = struct{}{}
}

func (c *Core) sbInsertCode(lineVA uint64) {
	if c.sbCode == nil {
		c.sbCode = make(map[uint64]struct{})
	}
	c.sbCode[lineVA] = struct{}{}
}

// FlushSpecFootprint clears the SafeBet footprints. The system calls it on
// every protection-domain switch; a no-op for other defense models.
func (c *Core) FlushSpecFootprint() {
	c.wake()
	if c.sbData != nil {
		clear(c.sbData)
	}
	if c.sbCode != nil {
		clear(c.sbCode)
	}
}
