package cache

import (
	"encoding/binary"
	"testing"

	"repro/internal/checkpoint"
)

// The bytes an array saves: geometry (two u32) and the valid-line count;
// then per valid line its way index, both tags, state, committed bit, fill
// level and recency rank.
const (
	arrayHeaderBytes = 4 + 4 + 4
	lineBytes        = 4 + 8 + 8 + 1 + 1 + 1 + 4
)

func save(a *Array) *checkpoint.Snapshot {
	s := checkpoint.New()
	s.Put("a", a.Checkpoint)
	return s
}

func arrayBytes(a *Array) string { return save(a).Hash() }

func TestArraySaveRestoreRoundTrip(t *testing.T) {
	cfg := Config{Name: "l1", SizeBytes: 4096, Assoc: 2}
	a := NewArray(cfg)
	for i := uint64(0); i < 40; i++ {
		a.Fill(0x1000+i*64, State(1+i%3))
	}
	a.Lookup(0x1000) // perturb LRU
	a.InvalidateLine(0x1040)

	snap := save(a)
	if want := arrayHeaderBytes + a.CountValid()*lineBytes; snap.Len("a") != want {
		t.Fatalf("saved %d bytes for %d valid lines, want %d", snap.Len("a"), a.CountValid(), want)
	}
	b := NewArray(cfg)
	if err := snap.Get("a", b.Checkpoint); err != nil {
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
// and every valid line adds exactly lineBytes — bytes follow what the
// array holds, not its geometry.
func TestArraySaveTracksOccupancy(t *testing.T) {
	a := NewArray(Config{Name: "l2", SizeBytes: 1 << 20, Assoc: 8})
	if got := save(a).Len("a"); got != arrayHeaderBytes {
		t.Fatalf("empty 1 MiB array saves to %d bytes, want %d", got, arrayHeaderBytes)
	}
	for i := uint64(0); i < 100; i++ {
		a.Fill(i*64, Shared)
	}
	if want, got := arrayHeaderBytes+100*lineBytes, save(a).Len("a"); got != want {
		t.Fatalf("100 valid lines: saved %d bytes, want %d", got, want)
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
	if err := save(a).Get("a", b.Checkpoint); err != nil {
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
	rank  uint32
}

// forgeArray writes an Array payload for a 32x2 array claiming count
// entries, followed by the given lines.
func forgeArray(count uint32, lines ...savedLine) *checkpoint.Snapshot {
	le := binary.LittleEndian
	b := le.AppendUint32(le.AppendUint32(nil, 32), 2)
	b = le.AppendUint32(b, count)
	for _, l := range lines {
		b = le.AppendUint64(le.AppendUint32(b, l.idx), 0x1000+uint64(l.idx)*64)
		b = append(le.AppendUint64(b, 0), uint8(l.state), 1, 1)
		b = le.AppendUint32(b, l.rank)
	}
	snap := checkpoint.New()
	snap.Put("a", func(s *checkpoint.State) { checkpoint.Raw(s, b) })
	return snap
}

// TestArrayRestoreRejectsCorruptEntries: the indices in a payload address
// the array, so Restore must refuse every malformed table instead of
// writing out of range, resurrecting a way twice or looping on a count
// from the file.
func TestArrayRestoreRejectsCorruptEntries(t *testing.T) {
	cfg := Config{Name: "l1", SizeBytes: 4096, Assoc: 2} // 32 sets x 2 ways
	if err := forgeArray(2, savedLine{3, Shared, 1}, savedLine{63, Modified, 0}).Get("a", NewArray(cfg).Checkpoint); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	for name, snap := range map[string]*checkpoint.Snapshot{
		"count above capacity":   forgeArray(65),
		"count beyond the bytes": forgeArray(3, savedLine{1, Shared, 0}),
		"index at capacity":      forgeArray(1, savedLine{64, Shared, 0}),
		"index far out of range": forgeArray(1, savedLine{1 << 31, Shared, 0}),
		"descending indices":     forgeArray(2, savedLine{9, Shared, 0}, savedLine{4, Shared, 0}),
		"duplicate index":        forgeArray(2, savedLine{9, Shared, 0}, savedLine{9, Exclusive, 1}),
		"entry saved Invalid":    forgeArray(1, savedLine{5, Invalid, 0}),
		"entry in no MESI state": forgeArray(1, savedLine{5, State(9), 0}),
		"rank at the assoc":      forgeArray(1, savedLine{5, Shared, 2}),
	} {
		if err := snap.Get("a", NewArray(cfg).Checkpoint); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
}

func TestArrayRestoreRejectsGeometryMismatch(t *testing.T) {
	a := NewArray(Config{Name: "a", SizeBytes: 4096, Assoc: 2})
	b := NewArray(Config{Name: "b", SizeBytes: 8192, Assoc: 2})
	if err := save(a).Get("a", b.Checkpoint); err == nil {
		t.Fatal("restore into mismatched geometry succeeded")
	}
}
