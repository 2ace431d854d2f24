package core

import (
	"repro/internal/cache"
	"repro/internal/mem"
)

// FilterConfig sizes a speculative filter cache. The paper's tuned
// configuration (§6.4) is 2KiB, 4-way.
type FilterConfig struct {
	Name      string
	SizeBytes uint64
	Assoc     int
	MSHRs     int
}

// DefaultDataFilterConfig is the paper's Table 1 data filter cache.
func DefaultDataFilterConfig() FilterConfig {
	return FilterConfig{Name: "l0d", SizeBytes: 2048, Assoc: 4, MSHRs: 4}
}

// DefaultInstFilterConfig is the paper's Table 1 instruction filter cache.
func DefaultInstFilterConfig() FilterConfig {
	return FilterConfig{Name: "l0i", SizeBytes: 2048, Assoc: 4, MSHRs: 4}
}

// FilterCache is one speculative filter cache (data or instruction).
type FilterCache struct {
	arr   *cache.Array
	MSHRs *cache.MSHRFile
}

// NewFilterCache builds a filter cache.
func NewFilterCache(cfg FilterConfig) *FilterCache {
	return &FilterCache{
		arr:   cache.NewArray(cache.Config{Name: cfg.Name, SizeBytes: cfg.SizeBytes, Assoc: cfg.Assoc}),
		MSHRs: cache.NewMSHRFile(cfg.MSHRs),
	}
}

// Release hands the filter cache's line array back (see cache.Array.Release).
func (f *FilterCache) Release() { f.arr.Release() }

// Lines reports the line capacity.
func (f *FilterCache) Lines() int { return f.arr.Lines() }

// CountValid reports live lines.
func (f *FilterCache) CountValid() int { return f.arr.CountValid() }

// Lookup performs the CPU-side (virtually addressed) lookup.
func (f *FilterCache) Lookup(vaddr mem.VAddr) *cache.Line {
	return f.arr.LookupVirtual(uint64(vaddr))
}

// Snoop performs the memory-side (physically addressed) lookup without
// perturbing replacement state.
func (f *FilterCache) Snoop(paddr mem.Addr) *cache.Line {
	return f.arr.Peek(uint64(paddr))
}

// Fill installs a line with both tags. Physical addressing on fill
// resolves virtual aliases: if the physical line is already present under
// a different virtual tag, that copy is overwritten so only one copy of
// each physical line ever exists (§4.4). It returns the evicted line when
// a valid line was displaced.
func (f *FilterCache) Fill(vaddr mem.VAddr, paddr mem.Addr, st cache.State, committed bool, fillLevel uint8) (evicted cache.Line, hadVictim bool) {
	line, ev, had := f.arr.FillPreferCommitted(uint64(paddr), st)
	line.VTag = uint64(mem.LineAddr(vaddr))
	line.Committed = committed
	line.FillLevel = fillLevel
	return ev, had
}

// MarkCommitted sets the committed bit on the line holding paddr and
// reports whether the line was present and previously uncommitted (in
// which case the caller must write it through to the L1). The previous
// state is returned so the caller can detect SE lines needing an
// asynchronous exclusive upgrade.
func (f *FilterCache) MarkCommitted(paddr mem.Addr) (prev cache.State, wasUncommitted, present bool) {
	l := f.arr.Peek(uint64(paddr))
	if l == nil {
		return cache.Invalid, false, false
	}
	prev = l.State
	wasUncommitted = !l.Committed
	l.Committed = true
	if l.State == cache.SharedExclusivePending {
		// Once the upgrade is launched the pseudo-state collapses to S;
		// the exclusivity lives in the L1 from now on.
		l.State = cache.Shared
	}
	return prev, wasUncommitted, true
}

// Invalidate drops the line holding paddr (coherence invalidation or
// filter broadcast), reporting its previous state.
func (f *FilterCache) Invalidate(paddr mem.Addr) cache.State {
	return f.arr.InvalidateLine(uint64(paddr))
}

// FlashInvalidate clears every line in a single cycle by dropping the
// register valid bits (§4.3). It returns the number of lines cleared and
// invokes onDrop, when not nil, with each line's physical address first.
func (f *FilterCache) FlashInvalidate(onDrop func(paddr mem.Addr)) int {
	if onDrop != nil {
		f.arr.ForEach(func(l *cache.Line) { onDrop(mem.Addr(l.Tag)) })
	}
	return f.arr.InvalidateAll()
}

// ForEach visits every valid line.
func (f *FilterCache) ForEach(fn func(*cache.Line)) { f.arr.ForEach(fn) }
