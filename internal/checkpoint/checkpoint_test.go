package checkpoint

import (
	"os"
	"path/filepath"
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
