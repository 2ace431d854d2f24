package tlb

import (
	"encoding/binary"
	"testing"

	"repro/internal/checkpoint"
)

// entryBytes is one saved translation: its slot index, VPN, PFN, ASID and
// recency rank.
const entryBytes = 4 + 8 + 8 + 8 + 4

func save(t *TLB) *checkpoint.Snapshot {
	s := checkpoint.New()
	s.Put("t", t.Checkpoint)
	return s
}

func TestTLBSaveRestoreRoundTrip(t *testing.T) {
	a := New("dtlb", 8)
	for i := uint64(0); i < 12; i++ {
		a.Insert(1, 0x100+i, 0x200+i)
	}
	a.Lookup(1, 0x108) // refresh one entry's LRU
	a.Remove(1, 0x109)

	b := New("dtlb", 8)
	if err := save(a).Get("t", b.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if b.CountValid() != a.CountValid() || save(b).Hash() != save(a).Hash() {
		t.Fatal("restored TLB differs")
	}
	// Replacement state survived: the next two victims are the same ones.
	for _, vpn := range []uint64{0x900, 0x901} {
		a.Insert(1, vpn, vpn)
		b.Insert(1, vpn, vpn)
	}
	if save(b).Hash() != save(a).Hash() {
		t.Fatal("victim choice diverged after restore")
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
	b := New("b", 16)
	if err := save(a).Get("t", b.Checkpoint); err == nil {
		t.Fatal("restore into mismatched size succeeded")
	}
}

// TestTLBSaveTracksOccupancy: a TLB saves to a fixed header (its capacity
// and entry count) plus entryBytes per valid translation.
func TestTLBSaveTracksOccupancy(t *testing.T) {
	a := New("dtlb", 64)
	empty := save(a).Len("t")
	if empty != 4+4 {
		t.Fatalf("empty TLB saves to %d bytes", empty)
	}
	a.Insert(1, 0x10, 0x20)
	a.Insert(1, 0x11, 0x21)
	a.Insert(1, 0x12, 0x22)
	a.Remove(1, 0x11)
	if want, got := empty+2*entryBytes, save(a).Len("t"); got != want {
		t.Fatalf("2 valid entries: saved %d bytes, want %d", got, want)
	}
}

// savedEntry is one forged entry of a TLB payload.
type savedEntry struct{ idx, rank uint32 }

// forgeTLB writes a payload for an 8-entry TLB claiming count entries,
// followed by the given entries.
func forgeTLB(count uint32, entries ...savedEntry) *checkpoint.Snapshot {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, 8)
	b = le.AppendUint32(b, count)
	for _, e := range entries {
		b = le.AppendUint32(b, e.idx)
		for _, v := range []uint64{0x100 + uint64(e.idx), 0x200 + uint64(e.idx), 1} {
			b = le.AppendUint64(b, v)
		}
		b = le.AppendUint32(b, e.rank)
	}
	snap := checkpoint.New()
	snap.Put("t", func(s *checkpoint.State) { checkpoint.Raw(s, b) })
	return snap
}

// TestTLBRestoreRejectsCorruptEntries: slot indices come from the file
// and address the entry array, so every malformed table must be refused.
func TestTLBRestoreRejectsCorruptEntries(t *testing.T) {
	ok := New("t", 8)
	ok.Insert(9, 0x999, 0x999) // stale content a restore must clear
	if err := forgeTLB(2, savedEntry{0, 1}, savedEntry{7, 0}).Get("t", ok.Checkpoint); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	if _, hit := ok.Lookup(9, 0x999); hit || ok.CountValid() != 2 {
		t.Fatalf("restore left %d valid entries (stale hit %v), want exactly the 2 saved", ok.CountValid(), hit)
	}
	for name, snap := range map[string]*checkpoint.Snapshot{
		"count above capacity":   forgeTLB(9),
		"count beyond the bytes": forgeTLB(2, savedEntry{1, 0}),
		"index at capacity":      forgeTLB(1, savedEntry{8, 0}),
		"descending indices":     forgeTLB(2, savedEntry{5, 0}, savedEntry{2, 1}),
		"duplicate index":        forgeTLB(2, savedEntry{5, 0}, savedEntry{5, 1}),
		"rank at capacity":       forgeTLB(1, savedEntry{3, 8}),
	} {
		if err := snap.Get("t", New("t", 8).Checkpoint); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
}
