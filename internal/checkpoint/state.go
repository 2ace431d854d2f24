package checkpoint

import (
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"
)

// mode is what a State does with the fields a walk hands it.
type mode uint8

const (
	measuring mode = iota // count the bytes saving will write
	saving                // append each field to the payload
	loading               // overwrite each field from the payload
)

// State is one section's payload in one of three modes. A component
// spells its layout once, as a method that hands every field it keeps to
// the State in order, and that method runs in all three: Snapshot.Put
// measures (counting the bytes), reserves exactly that many and saves
// (appending them); Snapshot.Get loads (overwriting each field from the
// payload). What only a load does — checking geometry and owner ranges,
// clearing a table before filling it — sits under Loading.
//
// The first failure ends a load: a read past the payload's end, Failf and
// Fail do not return, and Get reports the error. So nothing is read or
// written after it, and a walk checks nothing after each field.
type State struct {
	mode mode
	name string
	buf  []byte // saving: the payload so far; loading: the payload
	off  int    // measuring: the bytes counted; loading: the bytes read
	// keys is Map's sort buffer while saving; measuring sizes it for the
	// section's largest map. It survives from Put to Put, so a snapshot
	// allocates it only when a map outgrows every map before it.
	keys    []uint64
	maxKeys int
	tab     tab // the sparse table being walked
}

// short is the panic of a load that reads past the payload's end, and
// failure the panic of Failf and Fail; Get turns both into its error. The
// primitives panic rather than call an error path so that each stays
// within the compiler's inlining budget (go build -gcflags=-m=2
// ./internal/checkpoint): a walk makes one call per field of every
// entry a structure holds. For the same reason a save appends as
// s.buf = append(s.buf, ...) and then fills the bytes: that form stores
// only the new length while the reserved room lasts, where assigning
// binary.LittleEndian.AppendUint64's result stores the whole slice, a
// pointer store the garbage collector's write barrier guards.
type (
	short   struct{ off, n int }
	failure struct{ err error }
)

// Loading reports whether the walk overwrites the fields it is handed.
func (s *State) Loading() bool { return s.mode == loading }

// U64 walks a little-endian uint64.
func (s *State) U64(v *uint64) {
	switch s.mode {
	case measuring:
		s.off += 8
	case saving:
		s.buf = append(s.buf, 0, 0, 0, 0, 0, 0, 0, 0)
		binary.LittleEndian.PutUint64(s.buf[len(s.buf)-8:], *v)
	default:
		if len(s.buf)-s.off < 8 {
			panic(short{s.off, 8})
		}
		*v = binary.LittleEndian.Uint64(s.buf[s.off:])
		s.off += 8
	}
}

// U32 walks a little-endian uint32.
func (s *State) U32(v *uint32) {
	switch s.mode {
	case measuring:
		s.off += 4
	case saving:
		s.buf = append(s.buf, 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(s.buf[len(s.buf)-4:], *v)
	default:
		if len(s.buf)-s.off < 4 {
			panic(short{s.off, 4})
		}
		*v = binary.LittleEndian.Uint32(s.buf[s.off:])
		s.off += 4
	}
}

// U8 walks a byte.
func (s *State) U8(v *uint8) {
	switch s.mode {
	case measuring:
		s.off++
	case saving:
		s.buf = append(s.buf, *v)
	default:
		if len(s.buf)-s.off < 1 {
			panic(short{s.off, 1})
		}
		*v = s.buf[s.off]
		s.off++
	}
}

// Bool walks a bool as one byte; any non-zero byte loads as true.
func (s *State) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	if s.U8(&b); s.mode == loading {
		*v = b != 0
	}
}

// Until walks a busy-until cycle, a field only ever compared with the
// current cycle now, as the cycles still to wait: max(*v, now) − now, so
// a unit idle since any past cycle saves as 0. A load sets now plus the
// wait, now being the snapshot's cycle there too.
func Until[C ~uint64](s *State, v *C, now C) {
	wait := uint64(max(*v, now) - now)
	if s.U64(&wait); s.Loading() {
		*v = now + C(wait)
	}
}

// Raw walks v's bytes as they are, with no length before them: a dense
// table of small elements, or a page, moves in one copy instead of one
// call per element.
func Raw[T ~uint8](s *State, v []T) {
	// b is v's memory as bytes: T's underlying type is uint8.
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v))
	switch s.mode {
	case measuring:
		s.off += len(b)
	case saving:
		s.buf = append(s.buf, b...)
	default:
		if len(s.buf)-s.off < len(b) {
			panic(short{s.off, len(b)})
		}
		s.off += copy(b, s.buf[s.off:])
	}
}

// Failf ends a load with a semantic error — a geometry mismatch, an owner
// out of range — worded as a decoding error of this section. It does not
// return.
func (s *State) Failf(format string, args ...any) {
	panic(failure{fmt.Errorf("checkpoint: section %q: %s", s.name, fmt.Sprintf(format, args...))})
}

// Fail ends a load with err as it is. It does not return.
func (s *State) Fail(err error) { panic(failure{err}) }

// ended turns the panic that ended a load into its error; any other panic
// goes on.
func (s *State) ended(p any) error {
	switch p := p.(type) {
	case nil:
		return nil
	case short:
		return fmt.Errorf("checkpoint: section %q truncated at offset %d (+%d)", s.name, p.off, p.n)
	case failure:
		return p.err
	}
	panic(p)
}

// Table is a sparse table being walked: a count, then only the entries
// the structure holds, each prefixed by its index, indices ascending. An
// entry that is not written is one nothing reads, so equal held contents
// are equal bytes whatever the rest of the structure holds. A walk is
//
//	t := s.Table(len(entries), countHeld)
//	for i := t.First(); t.More(i); i = t.Next(i) {
//		if !t.Holds(i, entries[i].valid) {
//			continue
//		}
//		// walk entry i's fields
//	}
//	t.End()
//
// Saving visits every index. Loading visits only the indices the payload
// holds, each read right after the fields of the entry before it.
// Measuring visits indices only up to the first held entry and walks its
// fields: every entry of a table has the size of the first, and held —
// which a measure alone calls — says how many the structure holds. (Put
// panics if saving then writes another size, so a held that disagrees
// with the walk cannot go unnoticed.)
//
// A Table is a value whose methods take it by value, so a walk keeps it in
// registers; what changes as the walk goes on is in the State's tab, as
// tables do not nest.
type Table struct {
	s    *State
	end  int // the size; 0 when measuring a table that holds nothing
	mode mode
}

// tab is the sparse table a State is walking: saving, where its count goes
// and the entries written; measuring, where its first held entry began
// (-1 until then) and the entries the structure holds; loading, the
// entries left to read and the index read before.
type tab struct{ at, count, prev int }

// Table starts a sparse table in a structure of size entries. Loading, it
// reads the count and fails on one above size, so the walk is bounded by
// the structure it fills, never by a number from the file.
func (s *State) Table(size int, held func() int) Table {
	t := Table{s: s, end: size, mode: s.mode}
	s.tab = tab{at: -1, prev: -1}
	switch s.mode {
	case measuring:
		if s.tab.count = held(); s.tab.count == 0 {
			t.end = 0
		}
		s.off += 4
	case saving:
		s.tab.at = len(s.buf)
		s.buf = append(s.buf, 0, 0, 0, 0)
	default:
		var n uint32
		if s.U32(&n); uint64(n) > uint64(size) {
			s.Failf("%d entries in a table of %d", n, size)
		}
		s.tab.count = int(n)
	}
	return t
}

// First is the walk's first index: loading, the first index in the
// payload (the size when there is none); otherwise 0.
func (t Table) First() int {
	if t.mode == loading {
		return t.s.next(-1, t.end)
	}
	return 0
}

// Next is the index the walk visits after i: saving, i+1; otherwise what
// next says.
func (t Table) Next(i int) int {
	if t.mode == saving {
		return i + 1
	}
	return t.s.next(i, t.end)
}

// More reports whether the walk goes on to index i.
func (t Table) More(i int) bool { return i < t.end }

// Holds reports whether entry i's fields follow. Loading, they always do:
// i came from the payload. Saving, they do when the structure holds the
// entry (held), and its index is written; measuring, for the first held
// entry, after which Next ends the walk.
func (t Table) Holds(i int, held bool) bool {
	return held && t.s.hold(i) || t.mode == loading
}

// hold is Holds for an entry the structure holds: the call Holds leaves
// out of its inlined body, which the walk runs for every index it visits.
func (s *State) hold(i int) bool {
	switch s.mode {
	case saving:
		s.tab.count++
		s.buf = append(s.buf, 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(s.buf[len(s.buf)-4:], uint32(i))
	case measuring: // the first held entry: mark where it begins
		s.tab.at = s.off
		s.off += 4
	}
	return true
}

// next is Next measuring and loading. Measuring, it is end, the size,
// once the first held entry is walked, else i+1. Loading, it reads the
// next index in the payload, after entry i's fields, or is end when none
// is left. An index must be below the size and strictly above the one
// before it; anything else fails the load, so no index from a file
// reaches the caller's structure unchecked.
func (s *State) next(i, end int) int {
	switch {
	case s.mode == measuring && s.tab.at >= 0, s.mode == loading && s.tab.count == 0:
		return end
	case s.mode == measuring:
		return i + 1
	}
	s.tab.count--
	var n uint32
	if s.U32(&n); int64(n) >= int64(end) || int64(n) <= int64(s.tab.prev) {
		s.Failf("entry index %d after %d in a table of %d", n, s.tab.prev, end)
	}
	s.tab.prev = int(n)
	return s.tab.prev
}

// End ends the walk: saving, it writes the count; measuring, it counts
// the held entries after the first at the first's size. A load has read
// every index by the time More stops it.
func (t Table) End() {
	s := t.s
	switch {
	case t.mode == saving:
		binary.LittleEndian.PutUint32(s.buf[s.tab.at:], uint32(s.tab.count))
	case t.mode == measuring && s.tab.at >= 0:
		s.off += (s.tab.count - 1) * (s.off - s.tab.at)
	}
}

// Count is the width of the entry count a Map walks before its entries.
type Count uint8

const (
	Count32 Count = 4 // a uint32
	Count64 Count = 8 // a uint64
)

// count walks n as a count of width w.
func (s *State) count(w Count, n *uint64) {
	if w == Count64 {
		s.U64(n)
		return
	}
	c := uint32(*n)
	s.U32(&c)
	*n = uint64(c)
}

// Map walks a map keyed by an address: a count of width w, then the
// entries, saved in ascending key order so equal maps are equal bytes.
// Saving and measuring, it walks only the entries held reports true for
// (every entry when held is nil); measuring, it counts them in one pass
// and walks the first — every entry has the size of the first — and sorts
// nothing. Loading, it clears *m (making it on the first entry if it is
// nil) and reads as many entries as the count says: the payload bounds
// them. entry walks one key and its value and returns them, loaded or as
// they were.
func Map[K ~uint64, V any](s *State, m *map[K]V, w Count, held func(V) bool, entry func(K, V) (K, V)) {
	var n uint64
	switch s.mode {
	case measuring:
		size := 0
		for k, v := range *m {
			if held != nil && !held(v) {
				continue
			}
			if n++; n == 1 {
				at := s.off
				entry(k, v)
				size = s.off - at
			}
			if held == nil {
				n = uint64(len(*m))
				break
			}
		}
		if s.count(w, &n); n > 1 {
			s.off += int(n-1) * size
		}
		s.maxKeys = max(s.maxKeys, int(n))
	case saving:
		keys := s.keys[:0]
		for k, v := range *m {
			if held == nil || held(v) {
				keys = append(keys, uint64(k))
			}
		}
		slices.Sort(keys)
		n = uint64(len(keys))
		s.count(w, &n)
		for _, k := range keys {
			entry(K(k), (*m)[K(k)])
		}
		s.keys = keys
	default:
		s.count(w, &n)
		clear(*m)
		for ; n > 0; n-- {
			var zk K
			var zv V
			k, v := entry(zk, zv)
			if *m == nil {
				*m = make(map[K]V)
			}
			(*m)[k] = v
		}
	}
}
