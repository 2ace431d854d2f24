package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// sample is the field set buildSample saves and TestCodecRoundTrip loads.
type sample struct {
	u64  uint64
	u32  uint32
	u8   uint8
	ok   bool
	raw  [3]byte
	i64  int64
	beta uint64
}

func (v *sample) alpha(s *State) {
	i64 := uint64(v.i64)
	s.U64(&v.u64)
	s.U32(&v.u32)
	s.U8(&v.u8)
	s.Bool(&v.ok)
	Raw(s, v.raw[:])
	s.U64(&i64)
	v.i64 = int64(i64)
}

// putWords adds a section of little-endian words.
func putWords(s *Snapshot, name string, words ...uint64) {
	s.Put(name, func(s *State) {
		for i := range words {
			s.U64(&words[i])
		}
	})
}

// putBytes adds a section holding b after its length.
func putBytes(s *Snapshot, name string, b []byte) {
	s.Put(name, func(s *State) {
		n := uint64(len(b))
		s.U64(&n)
		Raw(s, b)
	})
}

func buildSample() *Snapshot {
	s := New()
	v := sample{u64: 42, u32: 7, u8: 3, ok: true, raw: [3]byte{1, 2, 3}, i64: -5, beta: 99}
	s.Put("alpha", v.alpha)
	s.Put("beta", func(s *State) { s.U64(&v.beta) })
	return s
}

func TestCodecRoundTrip(t *testing.T) {
	s := buildSample()
	dec, err := Decode(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dec.Hash(), s.Hash(); got != want {
		t.Fatalf("hash changed across encode/decode: %s vs %s", got, want)
	}
	var v sample
	if err := dec.Get("alpha", v.alpha); err != nil {
		t.Fatal(err)
	}
	if v.u64 != 42 || v.u32 != 7 || v.u8 != 3 || !v.ok {
		t.Fatal("primitive mismatch")
	}
	if v.raw != [3]byte{1, 2, 3} {
		t.Fatalf("bytes mismatch: %v", v.raw)
	}
	if v.i64 != -5 {
		t.Fatal("int mismatch")
	}
	if dec.Len("alpha") != 8+4+1+1+3+8 || dec.Len("gamma") != 0 {
		t.Fatalf("section lengths %d, %d", dec.Len("alpha"), dec.Len("gamma"))
	}
	if !dec.Has("beta") || dec.Has("gamma") {
		t.Fatal("section presence wrong")
	}
}

// TestReaderStickyError: a load that reads past its section's end stops
// there — nothing after it is read or written — and Get reports where.
func TestReaderStickyError(t *testing.T) {
	s := New()
	one := uint8(1)
	s.Put("short", func(s *State) { s.U8(&one) })
	var a uint8
	b, c := uint64(7), uint32(9)
	err := s.Get("short", func(s *State) {
		s.U8(&a)
		s.U64(&b)
		s.U32(&c)
	})
	if err == nil || !strings.Contains(err.Error(), `section "short" truncated at offset 1 (+8)`) {
		t.Fatalf("overrun: %v", err)
	}
	if a != 1 || b != 7 || c != 9 {
		t.Fatalf("fields after the failure were written: %d %d %d", a, b, c)
	}
	if err := s.Get("short", func(s *State) { s.Failf("bad %d", 3) }); err == nil ||
		err.Error() != `checkpoint: section "short": bad 3` {
		t.Fatalf("Failf: %v", err)
	}
	if err := s.Get("none", func(*State) {}); err == nil {
		t.Fatal("missing section opened")
	}
}

// TestGetReadsToTheEnd: a walk that ends before its payload does fails the
// load, since the bytes it left are state nothing restored.
func TestGetReadsToTheEnd(t *testing.T) {
	s := New()
	v, w := uint64(5), uint32(6)
	s.Put("two", func(s *State) { s.U64(&v); s.U32(&w) })
	err := s.Get("two", func(s *State) { s.U64(&v) })
	if err == nil || err.Error() != `checkpoint: section "two": 4 bytes left unread after the walk's 8` {
		t.Fatalf("a walk that left 4 bytes: %v", err)
	}
	if err := s.Get("two", func(s *State) { s.U64(&v); s.U32(&w) }); err != nil {
		t.Fatalf("a walk of the whole payload: %v", err)
	}
}

// TestPutReservesExactly: Put's payload is allocated at the measured size
// and filled to it, and a walk that saves other than it measured panics
// instead of regrowing the buffer.
func TestPutReservesExactly(t *testing.T) {
	s := buildSample()
	for _, name := range s.Names() {
		sec := s.sections[s.index[name]]
		if len(sec.buf) != cap(sec.buf) {
			t.Errorf("section %q: %d bytes in a %d-byte reservation", name, len(sec.buf), cap(sec.buf))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a walk that saves more than it measures did not panic")
		}
	}()
	v := uint64(1)
	New().Put("liar", func(s *State) {
		if s.mode == saving {
			s.U64(&v)
		}
	})
}

// TestResetRefillsByteIdentical: a snapshot refilled after Reset encodes
// and hashes exactly as a new snapshot of the same Puts, whether a
// section comes back shorter, longer, under another name or not at all,
// and a section refilled under its old name at its old position saves
// into its old buffer.
func TestResetRefillsByteIdentical(t *testing.T) {
	putMap := func(s *Snapshot, name string, n uint64) {
		m := map[uint64]uint64{}
		for i := uint64(0); i < n; i++ {
			m[i*7919%1009] = i
		}
		s.Put(name, func(s *State) {
			Map(s, &m, Count32, nil, func(k, v uint64) (uint64, uint64) {
				s.U64(&k)
				s.U64(&v)
				return k, v
			})
		})
	}
	img := New()
	putWords(img, "a", 1, 2, 3, 4)
	putWords(img, "b", 5)
	putMap(img, "c", 8)
	putWords(img, "d", 6, 7)
	putWords(img, "gone", 8)
	first := func(name string) *byte { return unsafe.SliceData(img.sections[img.index[name]].buf) }
	a, d := first("a"), first("d")

	refill := []func(*Snapshot){
		func(s *Snapshot) { putWords(s, "a", 9) },                // shorter
		func(s *Snapshot) { putWords(s, "b", 1, 2, 3, 4, 5, 6) }, // longer
		func(s *Snapshot) { putMap(s, "x", 40) },                 // renamed, a larger map
		func(s *Snapshot) { putWords(s, "d", 7, 6) },
	}
	img.Reset()
	fresh := New()
	for _, put := range refill {
		put(img)
		put(fresh)
	}
	if !bytes.Equal(img.Encode(), fresh.Encode()) || img.Hash() != fresh.Hash() {
		t.Fatalf("refilled image differs from a new one:\n%x\n%x", img.Encode(), fresh.Encode())
	}
	if !slices.Equal(img.Names(), []string{"a", "b", "x", "d"}) || img.Has("c") || img.Has("gone") {
		t.Fatalf("refilled image holds %v", img.Names())
	}
	if first("a") != a || first("d") != d {
		t.Error("a section refilled under its name and position did not reuse its buffer")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a section put twice after Reset did not panic")
		}
	}()
	putWords(img, "a", 1)
}

// TestSparseTable pins the sparse-table convention (a count, then
// ascending index-prefixed entries): saving writes only held entries and
// fills the count in at the end, measuring counts what saving writes from
// the first held entry and the structure's own count, and loading bounds
// the count by the table, requires every index in range and strictly
// above the one before it, and ends the load on a violation.
func TestSparseTable(t *testing.T) {
	// walk walks a table of one-byte entries, each its own index plus
	// one: held where the byte is non-zero.
	walk := func(entries []uint8) func(*State) {
		return func(s *State) {
			held := func() int {
				n := 0
				for _, e := range entries {
					if e != 0 {
						n++
					}
				}
				return n
			}
			tb := s.Table(len(entries), held)
			for i := tb.First(); tb.More(i); i = tb.Next(i) {
				if !tb.Holds(i, entries[i] != 0) {
					continue
				}
				if s.U8(&entries[i]); s.Loading() && entries[i] != uint8(i+1) {
					t.Fatalf("entry %d carries the wrong byte", i)
				}
			}
			tb.End()
			abc := []byte("abc")
			Raw(s, abc)
			if s.Loading() && string(abc) != "abc" {
				t.Fatal("load not positioned after the table")
			}
		}
	}
	// table saves the indices as a held table of capacity 16.
	table := func(idxs ...int) *Snapshot {
		s := New()
		entries := make([]uint8, 16)
		for _, i := range idxs {
			entries[i] = uint8(i + 1)
		}
		s.Put("t", walk(entries))
		return s
	}
	// forge writes the indices as a table's payload by hand.
	forge := func(idxs ...uint32) *Snapshot {
		s := New()
		s.Put("t", func(s *State) {
			n := uint32(len(idxs))
			s.U32(&n)
			for _, i := range idxs {
				b := uint8(i + 1)
				s.U32(&i)
				s.U8(&b)
			}
			Raw(s, []byte("abc"))
		})
		return s
	}
	// read returns the indices a load yields and its error.
	read := func(s *Snapshot, capacity int) ([]int, error) {
		entries := make([]uint8, capacity)
		err := s.Get("t", walk(entries))
		var got []int
		for i, e := range entries {
			if e != 0 {
				got = append(got, i)
			}
		}
		return got, err
	}

	if got, err := read(table(0, 3, 9), 16); err != nil || !slices.Equal(got, []int{0, 3, 9}) {
		t.Fatalf("well-formed table: %v, %v", got, err)
	}
	if got, err := read(table(), 16); err != nil || len(got) != 0 {
		t.Fatalf("empty table: %v, %v", got, err)
	}
	if n := table(0, 3, 9).Len("t"); n != 4+3*(4+1)+3 {
		t.Fatalf("a 3-entry table saved %d bytes", n)
	}
	if got, err := read(forge(15), 16); err != nil || !slices.Equal(got, []int{15}) {
		t.Fatalf("entry at the last index: %v, %v", got, err)
	}
	if got, err := read(forge(0), 1); err != nil || !slices.Equal(got, []int{0}) {
		t.Fatalf("one entry at index 0: %v, %v", got, err)
	}
	for name, tc := range map[string]struct {
		s        *Snapshot
		capacity int
		want     []int // loaded before the failure
	}{
		"count above capacity":      {forge(0, 1, 2), 2, nil},
		"index at capacity":         {forge(0, 9), 9, []int{0}},
		"repeated index":            {forge(0, 3, 3), 10, []int{0, 3}},
		"repeated index 0":          {forge(0, 0), 10, []int{0}},
		"descending to index 0":     {forge(5, 0), 10, []int{5}},
		"descending index":          {forge(5, 2), 10, []int{5}},
		"entry after the last one":  {forge(8, 9), 9, []int{8}},
		"index 0 in an empty table": {forge(0), 0, nil},
	} {
		got, err := read(tc.s, tc.capacity)
		if err == nil || !slices.Equal(got, tc.want) {
			t.Errorf("%s: loaded %v, err %v; want %v and an error", name, got, err, tc.want)
		}
	}
}

// TestMapIsCanonical: a map saves in ascending key order whatever its
// iteration order, measures what it saves without sorting, and loads into
// a cleared map.
func TestMapIsCanonical(t *testing.T) {
	walk := func(m *map[uint64]uint64) func(*State) {
		return func(s *State) {
			Map(s, m, Count64, nil, func(k, v uint64) (uint64, uint64) {
				s.U64(&k)
				s.U64(&v)
				return k, v
			})
		}
	}
	a, b := map[uint64]uint64{}, map[uint64]uint64{}
	for i := uint64(0); i < 64; i++ {
		a[i*7919%101] = i
	}
	for k, v := range a {
		b[k] = v
	}
	sa, sb := New(), New()
	sa.Put("m", walk(&a))
	sb.Put("m", walk(&b))
	if sa.Hash() != sb.Hash() || sa.Len("m") != 8+64*16 {
		t.Fatalf("equal maps, %d and %d bytes, hashes differ: %v", sa.Len("m"), sb.Len("m"), sa.Hash() != sb.Hash())
	}
	got := map[uint64]uint64{1 << 40: 1}
	if err := sa.Get("m", walk(&got)); err != nil || len(got) != 64 || got[1<<40] != 0 {
		t.Fatalf("loaded %d entries (err %v)", len(got), err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := buildSample().Encode()
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncation accepted")
	}
	bad := append([]byte{}, enc...)
	bad[0] ^= 0xff
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte{}, enc...)
	bad[8] = 0xee // version
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestHashReflectsContent(t *testing.T) {
	word := func(v uint64) *Snapshot {
		s := New()
		s.Put("x", func(s *State) { s.U64(&v) })
		return s
	}
	a, b, c := word(1), word(2), word(1)
	if a.Hash() == b.Hash() {
		t.Fatal("distinct content, same hash")
	}
	if a.Hash() != c.Hash() {
		t.Fatal("equal content, different hash")
	}
}

// TestStorePutRepairsTruncatedFile: a crash between WriteAtomic's rename
// and the data reaching disk leaves a short <hash>.snap; the next Put of
// the same content must replace it, or the content stays unloadable for
// as long as the store lives.
func TestStorePutRepairsTruncatedFile(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := buildSample()
	enc := s.Encode()
	if err := os.WriteFile(st.snapPath(s.Hash()), enc[:len(enc)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	hash, err := st.Put(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(hash); err != nil {
		t.Fatalf("Load after re-Put over a truncated file: %v", err)
	}
}

// TestStorePutRepairsGarbledFile: the same crash (or bit rot) can leave a
// file of exactly the right size with the wrong bytes. Put must read what
// is there, not trust its size — otherwise every Load fails its hash
// check and no later Put of the same content ever repairs it.
func TestStorePutRepairsGarbledFile(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := buildSample()
	enc := s.Encode()
	enc[len(enc)/2] ^= 0x01
	if err := os.WriteFile(st.snapPath(s.Hash()), enc, 0o644); err != nil {
		t.Fatal(err)
	}
	hash, err := st.Put(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(hash); err != nil {
		t.Fatalf("Load after re-Put over a same-sized garbled file: %v", err)
	}
}

// TestWriteToIsTheEncoding: Hash and the store stream the image through
// WriteTo, so it must produce exactly Encode's bytes — also for a snapshot
// with no sections, whose header is written on its own.
func TestWriteToIsTheEncoding(t *testing.T) {
	for _, s := range []*Snapshot{New(), buildSample()} {
		var buf bytes.Buffer
		n, err := s.WriteTo(&buf)
		if err != nil || int(n) != s.Size() || !bytes.Equal(buf.Bytes(), s.Encode()) {
			t.Fatalf("WriteTo wrote %d bytes (err %v), Size %d, Encode %d", n, err, s.Size(), len(s.Encode()))
		}
		sum := sha256.Sum256(s.Encode())
		if s.Hash() != hex.EncodeToString(sum[:]) {
			t.Fatal("Hash() is not SHA-256(Encode())")
		}
		if _, err := Decode(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStorePutLoadResolve(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(filepath.Join(dir, "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	s := buildSample()
	hash, err := st.Put(s)
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent put.
	if h2, err := st.Put(s); err != nil || h2 != hash {
		t.Fatalf("re-put: %s, %v", h2, err)
	}
	loaded, err := st.Load(hash)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Hash() != hash {
		t.Fatal("loaded snapshot hash mismatch")
	}
	if err := st.Link("workload=w|scale=1", hash); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Resolve("workload=w|scale=1")
	if !ok || got != hash {
		t.Fatalf("resolve: %q, %v", got, ok)
	}
	if _, ok := st.Resolve("other"); ok {
		t.Fatal("resolved unknown key")
	}
	if _, err := st.Load("deadbeef"); err == nil {
		t.Fatal("loaded missing hash")
	}
}
