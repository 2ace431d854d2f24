package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func buildSample() *Snapshot {
	s := New()
	w := s.Section("alpha")
	w.Grow(64) // reserve, then fill: changes capacity, never the bytes
	w.U64(42)
	w.U32(7)
	w.U8(3)
	w.Bool(true)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	w.I64(-5)
	s.Section("beta").U64(99)
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
	r, err := dec.Open("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if r.U64() != 42 || r.U32() != 7 || r.U8() != 3 || !r.Bool() {
		t.Fatal("primitive mismatch")
	}
	b := r.Bytes()
	if len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Fatalf("bytes mismatch: %v", b)
	}
	if r.String() != "hello" || r.I64() != -5 {
		t.Fatal("string/int mismatch")
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if !dec.Has("beta") || dec.Has("gamma") {
		t.Fatal("section presence wrong")
	}
}

func TestReaderStickyError(t *testing.T) {
	s := New()
	s.Section("short").U8(1)
	r, _ := s.Open("short")
	r.U8()
	if r.U64() != 0 || r.Err() == nil {
		t.Fatal("overrun not detected")
	}
	// Subsequent reads stay zero with the same first error.
	first := r.Err()
	if r.U32() != 0 || r.Err() != first {
		t.Fatal("error not sticky")
	}
}

// TestSparseTable pins the sparse-table convention (a count, then
// ascending index-prefixed entries): the writer fills in the count after
// its one pass, and the reader bounds the count by the table, requires
// every index in range and strictly above the one before it, and makes a
// violation stick like any other decoding error.
func TestSparseTable(t *testing.T) {
	// table writes the indices as a sparse table of one-byte entries.
	table := func(idxs ...int) *Snapshot {
		s := New()
		w := s.Section("t")
		tw := w.Table()
		for _, i := range idxs {
			tw.Entry(i)
			w.U8(uint8(i))
		}
		tw.End()
		copy(w.Raw(3), "abc")
		return s
	}
	// read returns the indices Next yields and the reader's final error.
	read := func(s *Snapshot, capacity int) ([]int, error) {
		r, _ := s.Open("t")
		var got []int
		tr := r.Table(capacity)
		for i, ok := tr.Next(); ok; i, ok = tr.Next() {
			if r.U8() != uint8(i) {
				t.Fatalf("entry %d carries the wrong byte", i)
			}
			got = append(got, i)
		}
		if _, ok := tr.Next(); ok {
			t.Fatal("Next yielded an entry after reporting the end")
		}
		if r.Err() == nil && string(r.Raw(3)) != "abc" {
			t.Fatal("reader not positioned after the table")
		}
		return got, r.Err()
	}

	if got, err := read(table(0, 3, 9), 10); err != nil || !slices.Equal(got, []int{0, 3, 9}) {
		t.Fatalf("well-formed table: %v, %v", got, err)
	}
	if got, err := read(table(), 10); err != nil || len(got) != 0 {
		t.Fatalf("empty table: %v, %v", got, err)
	}
	for name, tc := range map[string]struct {
		s        *Snapshot
		capacity int
		want     []int // yielded before the failure
	}{
		"count above capacity": {table(0, 1, 2), 2, nil},
		"index at capacity":    {table(0, 9), 9, []int{0}},
		"repeated index":       {table(0, 3, 3), 10, []int{0, 3}},
		"descending index":     {table(5, 2), 10, []int{5}},
	} {
		got, err := read(tc.s, tc.capacity)
		if err == nil || !slices.Equal(got, tc.want) {
			t.Errorf("%s: yielded %v, err %v; want %v and an error", name, got, err, tc.want)
		}
	}

	r, _ := table().Open("t")
	r.Table(0)
	r.Raw(3)
	if r.Raw(1) != nil || r.Err() == nil {
		t.Fatal("Raw past the end succeeded")
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
	a := New()
	a.Section("x").U64(1)
	b := New()
	b.Section("x").U64(2)
	if a.Hash() == b.Hash() {
		t.Fatal("distinct content, same hash")
	}
	c := New()
	c.Section("x").U64(1)
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
