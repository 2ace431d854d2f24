package cpu

import (
	"repro/internal/checkpoint"
	"repro/internal/mem"
)

// The footprint action (SafeBet, PAPERS.md): an unsafe load may access the
// memory system only if its line was touched non-speculatively by the same
// protection domain — the committed footprint. Otherwise loads wait until
// they are safe, stores send no prefetch, and instruction fetches stall
// while the next instruction would not be safe. Each core keeps two
// footprints, data lines (physical, added when a load or store commits) and
// code lines (virtual, added when any instruction commits), cleared on
// every protection-domain switch, so one domain's accesses never
// pre-authorise another's. Both stay nil under every other policy.

// lineSet is one footprint: the lines holding the addresses added to it,
// nil until the first.
type lineSet[K ~uint64] map[K]struct{}

func (s lineSet[K]) has(a K) bool {
	_, ok := s[mem.LineAddr(a)]
	return ok
}

func (s *lineSet[K]) add(a K) {
	if *s == nil {
		*s = make(lineSet[K])
	}
	(*s)[mem.LineAddr(a)] = struct{}{}
}

// checkpoint walks the set as a count and its lines, ascending, so equal
// machine states produce identical snapshot bytes. A load replaces the
// set, adding lines as it reads them: a corrupt count in a fuzzed snapshot
// must end the load at the payload's end, not over-allocate. A line that
// is not line-aligned, which add never keeps, fails the load.
func (s *lineSet[K]) checkpoint(st *checkpoint.State) {
	checkpoint.Map(st, (*map[K]struct{})(s), checkpoint.Count32, nil, func(a K, v struct{}) (K, struct{}) {
		line := uint64(a)
		if st.U64(&line); st.Loading() && mem.LineAddr(line) != line {
			st.Failf("footprint line %#x is not line-aligned", line)
		}
		return K(line), v
	})
}

// footprintCommit adds what a committing instruction touched to the
// footprints: its code line, and the data line of a load or store.
func (c *Core) footprintCommit(d *dynInst) {
	if d.isLoad() || d.isStore() {
		c.sbData.add(d.paddr)
	}
	c.sbCode.add(d.pc)
}

// FlushSpecFootprint clears the committed footprints. The system calls it
// on every protection-domain switch; a no-op for other defense models.
func (c *Core) FlushSpecFootprint() {
	c.wake()
	clear(c.sbData)
	clear(c.sbCode)
}
