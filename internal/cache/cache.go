package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/recycle"
)

// State is a MESI coherence state. Filter caches additionally use SE, a
// pseudo-state that behaves as Shared to the protocol but requests an
// asynchronous upgrade to Exclusive when its line commits (paper §4.5).
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
	// SharedExclusivePending (SE in the paper): protocol-visible Shared;
	// on commit the L1 launches an asynchronous upgrade to Exclusive.
	SharedExclusivePending
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case SharedExclusivePending:
		return "SE"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Valid reports whether the state holds data.
func (s State) Valid() bool { return s != Invalid }

// Owned reports whether the state grants write permission.
func (s State) Owned() bool { return s == Exclusive || s == Modified }

// ProtocolShared reports whether the state is Shared as far as the
// coherence protocol can observe (SE is protocol-visible Shared).
func (s State) ProtocolShared() bool { return s == Shared || s == SharedExclusivePending }

// Line is one cache line's metadata.
type Line struct {
	Tag   uint64 // physical line address (full address, line-aligned)
	VTag  uint64 // virtual line address (filter caches only; 0 if unused)
	State State
	// Committed marks filter-cache lines whose data has been used by at
	// least one committed instruction (paper §4.2). Non-filter caches
	// leave it true.
	Committed bool
	// FillLevel records which hierarchy level supplied the line (1 = L1,
	// 2 = L2, 3 = memory), used for commit-time prefetch notification
	// (paper §4.6).
	FillLevel uint8
	lru       uint64
}

// Config sizes a cache.
type Config struct {
	Name      string
	SizeBytes uint64
	Assoc     int
	// Sets overrides the set count when non-zero (otherwise derived from
	// SizeBytes / (Assoc * LineBytes)).
	Sets int
}

// Array is a set-associative tag array with true-LRU replacement. The
// ways are one flat slice indexed set*assoc + way (the index Save writes),
// borrowed from linePool and handed back by Release.
type Array struct {
	name    string
	lines   []Line
	assoc   int
	setMask uint64
	tick    uint64
}

var linePool recycle.Pool[Line]

// NewArray builds a tag array from cfg. A fully associative cache is
// expressed as Assoc == number of lines (Sets == 1).
func NewArray(cfg Config) *Array {
	lines := int(cfg.SizeBytes / mem.LineBytes)
	if cfg.Assoc <= 0 || lines <= 0 {
		panic(fmt.Sprintf("cache %q: bad config %+v", cfg.Name, cfg))
	}
	sets := cfg.Sets
	if sets == 0 {
		sets = lines / cfg.Assoc
	}
	if sets <= 0 {
		sets = 1
	}
	if bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("cache %q: set count %d not a power of two", cfg.Name, sets))
	}
	return &Array{
		name:    cfg.Name,
		lines:   linePool.Get(sets * cfg.Assoc),
		assoc:   cfg.Assoc,
		setMask: uint64(sets - 1),
	}
}

// Release ends the array's life: its lines go back to be borrowed by the
// next array of the same capacity. Any later access panics (the ways are
// gone); a second Release does nothing.
func (a *Array) Release() {
	linePool.Put(a.lines)
	a.lines = nil
}

// Name returns the configured cache name.
func (a *Array) Name() string { return a.name }

// Sets returns the number of sets.
func (a *Array) Sets() int { return int(a.setMask) + 1 }

// Assoc returns the associativity.
func (a *Array) Assoc() int { return a.assoc }

// Lines returns the total line capacity.
func (a *Array) Lines() int { return a.Sets() * a.assoc }

// SetIndex computes the set index for an address (physical indexing).
func (a *Array) SetIndex(addr uint64) uint64 {
	return (addr >> mem.LineShift) & a.setMask
}

// set returns the ways of the set addr maps to. The index is spelled out
// and the slice taken in two steps because Lookup, LookupVirtual and
// Victim must stay within the compiler's inlining budget with set inlined
// into them (go build -gcflags=-m=2 ./internal/cache).
func (a *Array) set(addr uint64) []Line {
	base := int(addr>>mem.LineShift&a.setMask) * a.assoc
	return a.lines[base:][:a.assoc]
}

// Lookup returns the line holding addr, or nil on miss. A hit refreshes
// LRU state.
func (a *Array) Lookup(addr uint64) *Line {
	addr = mem.LineAddr(addr)
	set := a.set(addr)
	for i := range set {
		if set[i].State.Valid() && set[i].Tag == addr {
			a.tick++
			set[i].lru = a.tick
			return &set[i]
		}
	}
	return nil
}

// Peek is Lookup without touching LRU state (used by snoops, which must
// not perturb replacement as a side channel of their own).
func (a *Array) Peek(addr uint64) *Line {
	addr = mem.LineAddr(addr)
	set := a.set(addr)
	for i := range set {
		if set[i].State.Valid() && set[i].Tag == addr {
			return &set[i]
		}
	}
	return nil
}

// LookupVirtual finds a line by virtual tag (filter caches are virtually
// indexed and tagged from the CPU side, paper §4.4).
func (a *Array) LookupVirtual(vaddr uint64) *Line {
	vaddr = mem.LineAddr(vaddr)
	set := a.set(vaddr)
	for i := range set {
		if set[i].State.Valid() && set[i].VTag == vaddr {
			a.tick++
			set[i].lru = a.tick
			return &set[i]
		}
	}
	return nil
}

// Victim returns the line to evict for a fill of addr: an invalid way if
// one exists, otherwise the least recently used line in the set.
func (a *Array) Victim(addr uint64) *Line {
	set := a.set(addr)
	var victim *Line
	for i := range set {
		if !set[i].State.Valid() {
			return &set[i]
		}
		if victim == nil || set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	return victim
}

// Fill installs addr into the victim way and returns the line, plus a copy
// of the evicted line when a valid line was displaced. Filling an address
// that is already present updates the existing line in place (never
// creating a duplicate tag) and reports no eviction.
func (a *Array) Fill(addr uint64, st State) (*Line, Line, bool) {
	return a.fill(addr, st, a.Victim)
}

// FillPreferCommitted is Fill with filter-cache replacement: committed
// lines are preferred victims because they are already written through to
// the L1, whereas evicting an uncommitted line forfeits its speculative
// fill (it must be re-fetched at commit, paper §4.2).
func (a *Array) FillPreferCommitted(addr uint64, st State) (*Line, Line, bool) {
	return a.fill(addr, st, a.victimCommittedFirst)
}

func (a *Array) fill(addr uint64, st State, victim func(uint64) *Line) (*Line, Line, bool) {
	addr = mem.LineAddr(addr)
	a.tick++
	if l := a.Peek(addr); l != nil {
		l.State = st
		l.lru = a.tick
		return l, Line{}, false
	}
	v := victim(addr)
	evicted := *v
	hadVictim := evicted.State.Valid()
	*v = Line{Tag: addr, State: st, Committed: true, lru: a.tick}
	return v, evicted, hadVictim
}

// victimCommittedFirst picks an invalid way, else the LRU committed line,
// else the overall LRU line.
func (a *Array) victimCommittedFirst(addr uint64) *Line {
	set := a.set(addr)
	var lruAll, lruCommitted *Line
	for i := range set {
		if !set[i].State.Valid() {
			return &set[i]
		}
		if lruAll == nil || set[i].lru < lruAll.lru {
			lruAll = &set[i]
		}
		if set[i].Committed && (lruCommitted == nil || set[i].lru < lruCommitted.lru) {
			lruCommitted = &set[i]
		}
	}
	if lruCommitted != nil {
		return lruCommitted
	}
	return lruAll
}

// InvalidateLine drops addr if present, returning the previous state.
func (a *Array) InvalidateLine(addr uint64) State {
	if l := a.Peek(addr); l != nil {
		st := l.State
		*l = Line{}
		return st
	}
	return Invalid
}

// InvalidateAll clears the whole array (the register-valid-bit flash
// invalidate of paper §4.3 when used on a filter cache).
func (a *Array) InvalidateAll() int {
	n := 0
	for i := range a.lines {
		if a.lines[i].State.Valid() {
			n++
			a.lines[i] = Line{}
		}
	}
	return n
}

// ForEach visits every valid line.
func (a *Array) ForEach(fn func(*Line)) {
	for i := range a.lines {
		if a.lines[i].State.Valid() {
			fn(&a.lines[i])
		}
	}
}

// CountValid reports the number of valid lines.
func (a *Array) CountValid() int {
	n := 0
	a.ForEach(func(*Line) { n++ })
	return n
}
