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

func TestMSHRFileSaveRestoreStats(t *testing.T) {
	f := NewMSHRFile(2)
	f.SetWaker(&slotRecorder{})
	f.Allocate(0x40, 1)
	f.Allocate(0x40, 2)
	f.Allocate(0x80, NoWaiter)
	f.Allocate(0xc0, NoWaiter) // full -> stall
	f.Complete(0x40)
	f.Complete(0x80)

	snap := checkpoint.New()
	f.Save(snap.Section("m"))
	g := NewMSHRFile(2)
	r, _ := snap.Open("m")
	if err := g.Restore(r); err != nil {
		t.Fatal(err)
	}
	if g.Allocs != f.Allocs || g.Coalesced != f.Coalesced || g.FullStall != f.FullStall {
		t.Fatalf("stats mismatch: %+v vs %+v", g, f)
	}
}
