package prefetch

import (
	"encoding/binary"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mem"
)

// entryBytes is one saved stride entry: its slot index, PC, last address,
// stride and confidence.
const entryBytes = 4 + 8 + 8 + 8 + 4

func save(p *Prefetcher) *checkpoint.Snapshot {
	s := checkpoint.New()
	s.Put("pf", p.Checkpoint)
	return s
}

func TestPrefetcherSaveRestoreRoundTrip(t *testing.T) {
	a := New(DefaultConfig())
	var issuedA []mem.Addr
	a.Issue = func(addr mem.Addr) { issuedA = append(issuedA, addr) }
	for i := 0; i < 4; i++ {
		a.Observe(0x400100, mem.Addr(0x1000+i*128))
	}

	b := New(DefaultConfig())
	if err := save(a).Get("pf", b.Checkpoint); err != nil {
		t.Fatal(err)
	}
	// The locked stride must keep issuing identically from restored state.
	var issuedB []mem.Addr
	b.Issue = func(addr mem.Addr) { issuedB = append(issuedB, addr) }
	issuedA = issuedA[:0]
	a.Observe(0x400100, 0x1200)
	b.Observe(0x400100, 0x1200)
	if len(issuedA) != len(issuedB) {
		t.Fatalf("issue counts diverged: %d vs %d", len(issuedA), len(issuedB))
	}
	for i := range issuedA {
		if issuedA[i] != issuedB[i] {
			t.Fatalf("issue %d diverged: %#x vs %#x", i, issuedA[i], issuedB[i])
		}
	}
}

func TestPrefetcherRestoreRejectsSizeMismatch(t *testing.T) {
	a := New(DefaultConfig())
	cfg := DefaultConfig()
	cfg.TableEntries = 8
	b := New(cfg)
	if err := save(a).Get("pf", b.Checkpoint); err == nil {
		t.Fatal("restore into mismatched table succeeded")
	}
}

// TestPrefetcherSaveTracksOccupancy: a prefetcher saves to a fixed header
// plus entryBytes per trained slot.
func TestPrefetcherSaveTracksOccupancy(t *testing.T) {
	p := New(DefaultConfig())
	empty := save(p).Len("pf")
	if empty != 4+4 {
		t.Fatalf("untrained prefetcher saves to %d bytes", empty)
	}
	p.Observe(0x400100, 0x1000)
	p.Observe(0x400104, 0x2000)
	if want, got := empty+2*entryBytes, save(p).Len("pf"); got != want {
		t.Fatalf("2 trained slots: saved %d bytes, want %d", got, want)
	}
}

// forgePrefetcher writes a payload for an 8-entry table claiming count
// entries, followed by entries at the given slot indices.
func forgePrefetcher(count uint32, idxs ...uint32) *checkpoint.Snapshot {
	le := binary.LittleEndian
	b := le.AppendUint32(le.AppendUint32(nil, 8), count)
	for _, i := range idxs {
		b = le.AppendUint64(le.AppendUint32(b, i), 0x400000+uint64(i)*4)
		b = le.AppendUint64(le.AppendUint64(b, 0x1000), 64)
		b = le.AppendUint32(b, 2)
	}
	snap := checkpoint.New()
	snap.Put("pf", func(s *checkpoint.State) { checkpoint.Raw(s, b) })
	return snap
}

// TestPrefetcherRestoreRejectsCorruptEntries: slot indices come from the
// file and address the table, so every malformed table must be refused.
func TestPrefetcherRestoreRejectsCorruptEntries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TableEntries = 8
	ok := New(cfg)
	ok.Observe(0x40000c, 0x5000) // slot 3: stale content a restore must clear
	if err := forgePrefetcher(2, 0, 7).Get("pf", ok.Checkpoint); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	if ok.table[3].valid || !ok.table[0].valid || !ok.table[7].valid {
		t.Fatal("restore did not leave exactly the saved entries")
	}
	for name, snap := range map[string]*checkpoint.Snapshot{
		"count above capacity":   forgePrefetcher(9),
		"count beyond the bytes": forgePrefetcher(2, 1),
		"index at capacity":      forgePrefetcher(1, 8),
		"descending indices":     forgePrefetcher(2, 5, 2),
		"duplicate index":        forgePrefetcher(2, 5, 5),
	} {
		if err := snap.Get("pf", New(cfg).Checkpoint); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
}
