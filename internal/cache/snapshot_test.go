package cache

import (
	"testing"

	"repro/internal/checkpoint"
)

func arrayBytes(a *Array) string {
	s := checkpoint.New()
	a.Save(s.Section("a"))
	return s.Hash()
}

func TestArraySaveRestoreRoundTrip(t *testing.T) {
	cfg := Config{Name: "l1", SizeBytes: 4096, Assoc: 2}
	a := NewArray(cfg)
	for i := uint64(0); i < 40; i++ {
		a.Fill(0x1000+i*64, State(1+i%3))
	}
	a.Lookup(0x1000) // perturb LRU
	a.InvalidateLine(0x1040)

	snap := checkpoint.New()
	w := snap.Section("a")
	a.Save(w)
	if w.Len() != a.SaveSize() {
		t.Fatalf("Save wrote %d bytes, SaveSize says %d", w.Len(), a.SaveSize())
	}
	b := NewArray(cfg)
	r, _ := snap.Open("a")
	if err := b.Restore(r); err != nil {
		t.Fatal(err)
	}
	if arrayBytes(a) != arrayBytes(b) {
		t.Fatal("restored array differs from original")
	}
	// Replacement state survived: the next victim choice must agree.
	if a.Victim(0x9000).Tag != b.Victim(0x9000).Tag {
		t.Fatal("victim choice diverged after restore")
	}
}

// TestArraySaveTracksOccupancy: an empty array saves to its header alone
// and every valid line adds exactly lineSaveBytes — bytes follow what the
// array holds, not its geometry.
func TestArraySaveTracksOccupancy(t *testing.T) {
	a := NewArray(Config{Name: "l2", SizeBytes: 1 << 20, Assoc: 8})
	if got := a.SaveSize(); got != arraySaveHeader {
		t.Fatalf("empty 1 MiB array saves to %d bytes, want %d", got, arraySaveHeader)
	}
	for i := uint64(0); i < 100; i++ {
		a.Fill(i*64, Shared)
	}
	snap := checkpoint.New()
	w := snap.Section("a")
	a.Save(w)
	if want := arraySaveHeader + 100*lineSaveBytes; w.Len() != want || a.SaveSize() != want {
		t.Fatalf("100 valid lines: Save wrote %d, SaveSize %d, want %d", w.Len(), a.SaveSize(), want)
	}
}

// TestArrayRestoreClearsStaleLines: restoring into an array that already
// holds lines leaves exactly the saved ones.
func TestArrayRestoreClearsStaleLines(t *testing.T) {
	cfg := Config{Name: "l1", SizeBytes: 4096, Assoc: 2}
	a, b := NewArray(cfg), NewArray(cfg)
	a.Fill(0x1000, Modified)
	for i := uint64(0); i < 64; i++ {
		b.Fill(0x8000+i*64, Shared)
	}
	snap := checkpoint.New()
	a.Save(snap.Section("a"))
	r, _ := snap.Open("a")
	if err := b.Restore(r); err != nil {
		t.Fatal(err)
	}
	if b.CountValid() != 1 || b.Peek(0x1000) == nil || arrayBytes(a) != arrayBytes(b) {
		t.Fatalf("restore over a populated array left %d valid lines", b.CountValid())
	}
}

// savedLine is one forged entry of an Array payload.
type savedLine struct {
	idx   uint32
	state State
}

// forgeArray writes an Array payload for a 32x2 array claiming count
// entries, followed by the given lines.
func forgeArray(count uint32, lines ...savedLine) *checkpoint.Reader {
	snap := checkpoint.New()
	w := snap.Section("a")
	w.U32(32)
	w.U32(2)
	w.U64(99)
	w.U32(count)
	for _, l := range lines {
		w.U32(l.idx)
		w.U64(0x1000 + uint64(l.idx)*64)
		w.U64(0)
		w.U8(uint8(l.state))
		w.Bool(true)
		w.U8(1)
		w.U64(uint64(l.idx) + 1)
	}
	r, _ := snap.Open("a")
	return r
}

// TestArrayRestoreRejectsCorruptEntries: the indices in a payload address
// the array, so Restore must refuse every malformed table instead of
// writing out of range, resurrecting a way twice or looping on a count
// from the file.
func TestArrayRestoreRejectsCorruptEntries(t *testing.T) {
	cfg := Config{Name: "l1", SizeBytes: 4096, Assoc: 2} // 32 sets x 2 ways
	if err := NewArray(cfg).Restore(forgeArray(2, savedLine{3, Shared}, savedLine{63, Modified})); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	for name, r := range map[string]*checkpoint.Reader{
		"count above capacity":   forgeArray(65),
		"count beyond the bytes": forgeArray(3, savedLine{1, Shared}),
		"index at capacity":      forgeArray(1, savedLine{64, Shared}),
		"index far out of range": forgeArray(1, savedLine{1 << 31, Shared}),
		"descending indices":     forgeArray(2, savedLine{9, Shared}, savedLine{4, Shared}),
		"duplicate index":        forgeArray(2, savedLine{9, Shared}, savedLine{9, Exclusive}),
		"entry saved Invalid":    forgeArray(1, savedLine{5, Invalid}),
		"entry in no MESI state": forgeArray(1, savedLine{5, State(9)}),
	} {
		if err := NewArray(cfg).Restore(r); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
}

func TestArrayRestoreRejectsGeometryMismatch(t *testing.T) {
	a := NewArray(Config{Name: "a", SizeBytes: 4096, Assoc: 2})
	snap := checkpoint.New()
	a.Save(snap.Section("a"))
	b := NewArray(Config{Name: "b", SizeBytes: 8192, Assoc: 2})
	r, _ := snap.Open("a")
	if err := b.Restore(r); err == nil {
		t.Fatal("restore into mismatched geometry succeeded")
	}
}
