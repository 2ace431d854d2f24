package cache

import "repro/internal/mem"

// NoWaiter marks an Allocate that needs no wake-up when the fill returns
// (the primary miss schedules its own completion event).
const NoWaiter int32 = -1

// Waker receives slot-parked wake-ups when a line's fill completes. The
// owner parks its completion state in a reusable slot of its own and hands
// the MSHR file the slot index; Complete hands the index back. This keeps
// the coalescing path free of per-miss closures (the same scheme the
// memory ports use for scheduled events).
type Waker interface {
	MSHRWake(slot int32)
}

// MSHR is one miss-status holding register: a pending miss to a line with
// the parked waiter slots to wake when the fill returns.
type MSHR struct {
	LineAddr uint64
	slots    []int32
}

// Waiters reports how many wake-ups are parked on the register.
func (m *MSHR) Waiters() int { return len(m.slots) }

// MSHRFile tracks outstanding misses for one cache. Requests to a line
// that already has an MSHR coalesce onto it; when every register is busy
// the cache must stall new misses (paper Table 1 gives 4 MSHRs for the L1s
// and filter caches, 16 for the L2). Registers are pooled so the
// steady-state miss path performs no allocation.
type MSHRFile struct {
	cap     int
	entries map[uint64]*MSHR
	waker   Waker
	free    []*MSHR
}

// NewMSHRFile returns a file with capacity registers.
func NewMSHRFile(capacity int) *MSHRFile {
	return &MSHRFile{cap: capacity, entries: make(map[uint64]*MSHR)}
}

// SetWaker installs the receiver for parked wake-up slots. A file whose
// callers only ever pass NoWaiter may leave it nil.
func (f *MSHRFile) SetWaker(w Waker) { f.waker = w }

// Lookup returns the MSHR for a line, if any.
func (f *MSHRFile) Lookup(addr uint64) *MSHR {
	return f.entries[mem.LineAddr(addr)]
}

// Full reports whether a new allocation would fail.
func (f *MSHRFile) Full() bool { return len(f.entries) >= f.cap }

// InUse reports the number of live registers.
func (f *MSHRFile) InUse() int { return len(f.entries) }

// Allocate records a miss on addr, parking slot (NoWaiter for none) to be
// woken through the file's Waker when the line completes. It returns
// (mshr, true) when this call created the registration or coalesced onto
// an existing one, and (nil, false) when the file is full and the request
// must retry.
func (f *MSHRFile) Allocate(addr uint64, slot int32) (*MSHR, bool) {
	if slot != NoWaiter && f.waker == nil {
		// Fail at the misuse site, not cycles later inside Complete.
		panic("cache: MSHR waiter parked on a file with no Waker installed")
	}
	la := mem.LineAddr(addr)
	if m, ok := f.entries[la]; ok {
		if slot != NoWaiter {
			m.slots = append(m.slots, slot)
		}
		return m, true
	}
	if len(f.entries) >= f.cap {
		return nil, false
	}
	var m *MSHR
	if n := len(f.free); n > 0 {
		m = f.free[n-1]
		f.free = f.free[:n-1]
		m.LineAddr = la
	} else {
		m = &MSHR{LineAddr: la}
	}
	if slot != NoWaiter {
		m.slots = append(m.slots, slot)
	}
	f.entries[la] = m
	return m, true
}

// Complete retires the MSHR for a line and wakes its parked waiters in
// arrival order. Completing a line with no MSHR is a no-op (squashed
// requests).
func (f *MSHRFile) Complete(addr uint64) {
	la := mem.LineAddr(addr)
	m, ok := f.entries[la]
	if !ok {
		return
	}
	delete(f.entries, la)
	for _, s := range m.slots {
		f.waker.MSHRWake(s)
	}
	m.slots = m.slots[:0]
	f.free = append(f.free, m)
}
