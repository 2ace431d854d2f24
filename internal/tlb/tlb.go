package tlb

import (
	"fmt"

	"repro/internal/mem"
)

// PageTable maps one process's virtual pages to physical frames. It also
// owns the simulated radix-table layout walked by the hardware walker: each
// translation has WalkDepth pointer locations in physical memory whose
// addresses the walker touches.
//
// The mapping is kept as the ranges it was built from, not page by page: a
// process maps a handful of ranges (text, each data segment, each stack)
// that cover thousands of pages. Ranges may overlap — segments that share a
// page each map it — and the newest mapping of a page wins, so Translate
// searches newest first.
type PageTable struct {
	ASID     uint64
	extents  []extent // in mapping order
	walkBase mem.Addr
}

// extent maps n consecutive pages from vpn to consecutive frames from pfn.
type extent struct{ vpn, pfn, n uint64 }

// WalkDepth is the number of memory accesses a page-table walk performs
// (a two-level simulated radix table).
const WalkDepth = 2

// NewPageTable creates an empty page table for an address-space ID. The
// walkBase places that process's page-table pages in physical memory so
// walks generate realistic, distinct cache traffic per process.
func NewPageTable(asid uint64, walkBase mem.Addr) *PageTable {
	return &PageTable{ASID: asid, walkBase: walkBase}
}

// Map installs vpn -> pfn.
func (pt *PageTable) Map(vpn, pfn uint64) { pt.MapRange(vpn, pfn, 1) }

// MapRange maps n consecutive pages starting at the given numbers,
// replacing any earlier mapping of those pages.
func (pt *PageTable) MapRange(vpn, pfn, n uint64) {
	if n > 0 {
		pt.extents = append(pt.extents, extent{vpn, pfn, n})
	}
}

// Translate returns the frame for a virtual page.
func (pt *PageTable) Translate(vpn uint64) (uint64, bool) {
	for i := len(pt.extents) - 1; i >= 0; i-- {
		if e := &pt.extents[i]; vpn-e.vpn < e.n {
			return e.pfn + (vpn - e.vpn), true
		}
	}
	return 0, false
}

// WalkAddrs returns the physical addresses the hardware walker reads to
// translate vpn: one per radix level, spread so different VPN ranges hit
// different page-table cache lines.
func (pt *PageTable) WalkAddrs(vpn uint64) [WalkDepth]mem.Addr {
	var out [WalkDepth]mem.Addr
	// Level 1 covers 512 pages per entry; level 0 is one entry per page.
	out[0] = pt.walkBase + mem.Addr((vpn>>9)*8)
	out[1] = pt.walkBase + mem.Addr(0x10000) + mem.Addr(vpn*8)
	return out
}

// Entry is one TLB translation.
type Entry struct {
	VPN  uint64
	PFN  uint64
	ASID uint64
	lru  uint64
}

// TLB is a fully associative translation cache with LRU replacement.
// The same structure implements both the main TLBs and the smaller filter
// TLB; the filter TLB is distinguished by being flushed on protection-
// domain switches and receiving speculative fills.
type TLB struct {
	name    string
	entries []Entry
	valid   []bool
	tick    uint64
}

// New creates a TLB with the given number of entries.
func New(name string, entries int) *TLB {
	if entries <= 0 {
		panic(fmt.Sprintf("tlb %q: bad size %d", name, entries))
	}
	return &TLB{
		name:    name,
		entries: make([]Entry, entries),
		valid:   make([]bool, entries),
	}
}

// Name returns the TLB's name.
func (t *TLB) Name() string { return t.name }

// Size returns the entry capacity.
func (t *TLB) Size() int { return len(t.entries) }

// Lookup translates (asid, vpn), refreshing LRU on hit.
func (t *TLB) Lookup(asid, vpn uint64) (uint64, bool) {
	for i := range t.entries {
		if t.valid[i] && t.entries[i].ASID == asid && t.entries[i].VPN == vpn {
			t.tick++
			t.entries[i].lru = t.tick
			return t.entries[i].PFN, true
		}
	}
	return 0, false
}

// Insert fills a translation into the first free slot, else over the LRU
// entry. A duplicate fill updates the entry in place, wherever it is.
func (t *TLB) Insert(asid, vpn, pfn uint64) {
	t.tick++
	free, victim := -1, 0 // victim is read only when every slot is valid
	for i := range t.entries {
		switch e := &t.entries[i]; {
		case !t.valid[i]:
			if free < 0 {
				free = i
			}
		case e.ASID == asid && e.VPN == vpn:
			e.PFN, e.lru = pfn, t.tick
			return
		case e.lru < t.entries[victim].lru:
			victim = i
		}
	}
	if free >= 0 {
		victim = free
	}
	t.entries[victim] = Entry{VPN: vpn, PFN: pfn, ASID: asid, lru: t.tick}
	t.valid[victim] = true
}

// Remove invalidates one translation (filter-TLB promotion moves the
// entry to the main TLB). Reports whether it was present.
func (t *TLB) Remove(asid, vpn uint64) bool {
	for i := range t.entries {
		if t.valid[i] && t.entries[i].ASID == asid && t.entries[i].VPN == vpn {
			t.valid[i] = false
			return true
		}
	}
	return false
}

// FlushAll invalidates every entry (context switch for the filter TLB).
func (t *TLB) FlushAll() int {
	n := 0
	for i := range t.valid {
		if t.valid[i] {
			n++
			t.valid[i] = false
		}
	}
	return n
}

// CountValid reports live entries.
func (t *TLB) CountValid() int {
	n := 0
	for i := range t.valid {
		if t.valid[i] {
			n++
		}
	}
	return n
}
