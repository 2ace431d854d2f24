package tlb

import (
	"testing"

	"repro/internal/checkpoint"
)

func TestTLBSaveRestoreRoundTrip(t *testing.T) {
	a := New("dtlb", 8)
	for i := uint64(0); i < 12; i++ {
		a.Insert(1, 0x100+i, 0x200+i)
	}
	a.Lookup(1, 0x108) // refresh one entry's LRU
	a.Remove(1, 0x109)

	snap := checkpoint.New()
	a.Save(snap.Section("t"))
	b := New("dtlb", 8)
	r, _ := snap.Open("t")
	if err := b.Restore(r); err != nil {
		t.Fatal(err)
	}
	if b.CountValid() != a.CountValid() || b.Lookups != a.Lookups || b.Hits != a.Hits {
		t.Fatal("restored TLB differs")
	}
	// Same translations resolve (and the same ones don't).
	if _, ok := b.Lookup(1, 0x108); !ok {
		t.Fatal("lost a translation")
	}
	if _, ok := b.Lookup(1, 0x109); ok {
		t.Fatal("resurrected a removed translation")
	}
}

func TestTLBRestoreRejectsSizeMismatch(t *testing.T) {
	a := New("a", 8)
	snap := checkpoint.New()
	a.Save(snap.Section("t"))
	b := New("b", 16)
	r, _ := snap.Open("t")
	if err := b.Restore(r); err == nil {
		t.Fatal("restore into mismatched size succeeded")
	}
}

// TestTLBSaveTracksOccupancy: Save writes what SaveSize says, and that is
// a fixed header plus entrySaveBytes per valid translation.
func TestTLBSaveTracksOccupancy(t *testing.T) {
	a := New("dtlb", 64)
	empty := a.SaveSize()
	a.Insert(1, 0x10, 0x20)
	a.Insert(1, 0x11, 0x21)
	a.Insert(1, 0x12, 0x22)
	a.Remove(1, 0x11)
	snap := checkpoint.New()
	w := snap.Section("t")
	a.Save(w)
	if want := empty + 2*entrySaveBytes; w.Len() != want || a.SaveSize() != want {
		t.Fatalf("2 valid entries: Save wrote %d, SaveSize %d, want %d", w.Len(), a.SaveSize(), want)
	}
}

// forgeTLB writes a payload for an 8-entry TLB claiming count entries,
// followed by entries at the given slot indices.
func forgeTLB(count uint32, idxs ...uint32) *checkpoint.Reader {
	snap := checkpoint.New()
	w := snap.Section("t")
	w.U32(8)
	w.U64(50) // tick
	w.U64(3)  // Lookups, Hits
	w.U64(2)
	w.U32(count)
	for _, i := range idxs {
		w.U32(i)
		w.U64(0x100 + uint64(i))
		w.U64(0x200 + uint64(i))
		w.U64(1)
		w.U64(uint64(i) + 1)
	}
	r, _ := snap.Open("t")
	return r
}

// TestTLBRestoreRejectsCorruptEntries: slot indices come from the file
// and address the entry array, so every malformed table must be refused.
func TestTLBRestoreRejectsCorruptEntries(t *testing.T) {
	ok := New("t", 8)
	ok.Insert(9, 0x999, 0x999) // stale content a restore must clear
	if err := ok.Restore(forgeTLB(2, 0, 7)); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	if _, hit := ok.Lookup(9, 0x999); hit || ok.CountValid() != 2 {
		t.Fatalf("restore left %d valid entries (stale hit %v), want exactly the 2 saved", ok.CountValid(), hit)
	}
	for name, r := range map[string]*checkpoint.Reader{
		"count above capacity":   forgeTLB(9),
		"count beyond the bytes": forgeTLB(2, 1),
		"index at capacity":      forgeTLB(1, 8),
		"descending indices":     forgeTLB(2, 5, 2),
		"duplicate index":        forgeTLB(2, 5, 5),
	} {
		if err := New("t", 8).Restore(r); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
}
