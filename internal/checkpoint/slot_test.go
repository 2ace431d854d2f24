package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"runtime"
	"testing"
)

// bigSnap builds a snapshot whose image dwarfs any per-write bookkeeping.
func bigSnap(tag byte, n int) *Snapshot {
	s := New()
	putWords(s, "machine", uint64(tag))
	putBytes(s, "phys", bytes.Repeat([]byte{tag}, n))
	return s
}

func newChainStore(t *testing.T) *Store {
	t.Helper()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestChainKeepsTwoSlots: checkpoint g overwrites checkpoint g-2 in
// place, so a chain of any length is two files, and each slot's header
// carries the snapshot's own content hash.
func TestChainKeepsTwoSlots(t *testing.T) {
	st := newChainStore(t)
	const key = "midrun|two-slots"
	var snaps []*Snapshot
	for g := uint64(1); g <= 5; g++ {
		// Images shrink along the chain, so every overwrite leaves a stale
		// tail behind the new image that Latest must not read.
		s := bigSnap(byte(g), 4096-int(g)*100)
		snaps = append(snaps, s)
		if err := st.Save(key, g, s); err != nil {
			t.Fatal(err)
		}
		wantLatest(t, st, key, g, s)
	}
	if names := dirNames(t, st.Dir()); len(names) != 2 {
		t.Fatalf("a five-checkpoint chain left %v, want two slots", names)
	}
	for g := uint64(4); g <= 5; g++ {
		b, err := os.ReadFile(st.slotPath(key, g))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b[16:slotHeaderSize]); got != snaps[g-1].Hash() {
			t.Fatalf("slot of checkpoint %d carries hash %s, want Snapshot.Hash %s", g, got, snaps[g-1].Hash())
		}
	}
	st.Drop(key)
	if names := dirNames(t, st.Dir()); len(names) != 0 {
		t.Fatalf("Drop left %v", names)
	}
	wantNoChain(t, st, key)
}

// TestChainFallsBackFromDamagedNewestSlot: a newest slot that is
// truncated, bit-flipped or empty — what a crash mid-write leaves — is
// passed over for the older checkpoint; with both slots damaged the chain
// is an error, never a snapshot.
func TestChainFallsBackFromDamagedNewestSlot(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)-7] },
		"header only": func(b []byte) []byte { return b[:slotHeaderSize] },
		"bit flip":    func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b },
		"length":      func(b []byte) []byte { binary.LittleEndian.PutUint64(b[8:], 1<<40); return b },
		"zero length": func([]byte) []byte { return nil },
	}
	for name, harm := range damage {
		t.Run(name, func(t *testing.T) {
			st := newChainStore(t)
			const key = "midrun|damaged"
			older, newer := bigSnap(3, 1000), bigSnap(4, 1000)
			if err := st.Save(key, 3, older); err != nil {
				t.Fatal(err)
			}
			if err := st.Save(key, 4, newer); err != nil {
				t.Fatal(err)
			}
			hurt := func(g uint64) {
				path := st.slotPath(key, g)
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, harm(b), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			hurt(4)
			wantLatest(t, st, key, 3, older)
			hurt(3)
			if got, g, err := st.Latest(key); got != nil || err == nil {
				t.Fatalf("both slots damaged: Latest = ordinal %d, %v; want an error", g, err)
			}
		})
	}
}

// TestChainSaveStreamsTheImage: a checkpoint is written from its section
// buffers, so saving one allocates a few hundred bytes of bookkeeping —
// never a copy of the image.
func TestChainSaveStreamsTheImage(t *testing.T) {
	st := newChainStore(t)
	s := bigSnap(7, 1<<20)
	if err := st.Save("midrun|alloc", 1, s); err != nil {
		t.Fatal(err)
	}
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for g := uint64(2); g < 2+n; g++ {
		if err := st.Save("midrun|alloc", g, s); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 16<<10 {
		t.Fatalf("Save allocates %d bytes per checkpoint of a %d-byte image; want no image copy", per, s.Size())
	}
}

// FuzzReadSlot feeds arbitrary bytes to the slot reader: they must give
// an error or a snapshot, never a panic; a snapshot read back must be
// exactly the image the header vouches for, so nothing it holds can be
// larger than the input.
func FuzzReadSlot(f *testing.F) {
	small := encodeSlot(1, bigSnap(1, 64))
	multi := New()
	putWords(multi, "machine", 3)
	multi.Put("core0", func(s *State) { Raw(s, make([]byte, 300)) })
	multi.Put("empty", func(*State) {})
	big := encodeSlot(1<<40, multi)
	f.Add([]byte{})
	f.Add(small)
	f.Add(big)
	f.Add(append(bytes.Clone(small), "stale tail"...))
	f.Add(small[:slotHeaderSize])
	f.Add(small[:len(small)-1])
	hostile := bytes.Clone(small)
	binary.LittleEndian.PutUint64(hostile[8:], ^uint64(0))
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, b []byte) {
		s, g, err := decodeSlot(b)
		if err != nil {
			return
		}
		n := binary.LittleEndian.Uint64(b[8:])
		if uint64(s.Size()) != n {
			t.Fatalf("header vouches for %d bytes, snapshot is %d", n, s.Size())
		}
		if rec := encodeSlot(g, s); !bytes.Equal(rec, b[:len(rec)]) {
			t.Fatal("slot read back does not re-encode to the bytes it came from")
		}
	})
}
