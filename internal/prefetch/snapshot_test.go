package prefetch

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mem"
)

func TestPrefetcherSaveRestoreRoundTrip(t *testing.T) {
	a := New(DefaultConfig())
	var issuedA []mem.Addr
	a.Issue = func(addr mem.Addr) { issuedA = append(issuedA, addr) }
	for i := 0; i < 4; i++ {
		a.Observe(0x400100, mem.Addr(0x1000+i*128))
	}

	snap := checkpoint.New()
	a.Save(snap.Section("pf"))
	b := New(DefaultConfig())
	r, _ := snap.Open("pf")
	if err := b.Restore(r); err != nil {
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
	snap := checkpoint.New()
	a.Save(snap.Section("pf"))
	cfg := DefaultConfig()
	cfg.TableEntries = 8
	b := New(cfg)
	r, _ := snap.Open("pf")
	if err := b.Restore(r); err == nil {
		t.Fatal("restore into mismatched table succeeded")
	}
}

// TestPrefetcherSaveTracksOccupancy: Save writes what SaveSize says — a
// fixed header plus entrySaveBytes per trained slot.
func TestPrefetcherSaveTracksOccupancy(t *testing.T) {
	p := New(DefaultConfig())
	empty := p.SaveSize()
	p.Observe(0x400100, 0x1000)
	p.Observe(0x400104, 0x2000)
	snap := checkpoint.New()
	w := snap.Section("pf")
	p.Save(w)
	if want := empty + 2*entrySaveBytes; w.Len() != want || p.SaveSize() != want {
		t.Fatalf("2 trained slots: Save wrote %d, SaveSize %d, want %d", w.Len(), p.SaveSize(), want)
	}
}

// forgePrefetcher writes a payload for an 8-entry table claiming count
// entries, followed by entries at the given slot indices.
func forgePrefetcher(count uint32, idxs ...uint32) *checkpoint.Reader {
	snap := checkpoint.New()
	w := snap.Section("pf")
	w.U32(8)
	w.U32(count)
	for _, i := range idxs {
		w.U32(i)
		w.U64(0x400000 + uint64(i)*4)
		w.U64(0x1000)
		w.I64(64)
		w.U32(2)
	}
	r, _ := snap.Open("pf")
	return r
}

// TestPrefetcherRestoreRejectsCorruptEntries: slot indices come from the
// file and address the table, so every malformed table must be refused.
func TestPrefetcherRestoreRejectsCorruptEntries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TableEntries = 8
	ok := New(cfg)
	ok.Observe(0x40000c, 0x5000) // slot 3: stale content a restore must clear
	if err := ok.Restore(forgePrefetcher(2, 0, 7)); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	if ok.table[3].valid || !ok.table[0].valid || !ok.table[7].valid {
		t.Fatal("restore did not leave exactly the saved entries")
	}
	for name, r := range map[string]*checkpoint.Reader{
		"count above capacity":   forgePrefetcher(9),
		"count beyond the bytes": forgePrefetcher(2, 1),
		"index at capacity":      forgePrefetcher(1, 8),
		"descending indices":     forgePrefetcher(2, 5, 2),
		"duplicate index":        forgePrefetcher(2, 5, 5),
	} {
		if err := New(cfg).Restore(r); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
}
