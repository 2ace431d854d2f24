package mem

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
)

// saveBytes is the encoded snapshot of p alone.
func saveBytes(p *Physical) []byte {
	s := checkpoint.New()
	s.Put("phys", p.Checkpoint)
	return s.Encode()
}

// TestBulkDataMatchesByteReference pins WriteData/ReadData to the
// byte-at-a-time Write8/Read8 semantics: same contents, same snapshot
// bytes, whatever the alignment, and both over empty memory and over a
// non-zero background (so overwriting, not only filling, is compared).
func TestBulkDataMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	zeroHead := append(make([]byte, PageBytes+100), random(300)...)
	zeroHole := append(append(random(40), make([]byte, 2*PageBytes)...), random(40)...)
	cases := []struct {
		name string
		at   Addr
		data []byte
	}{
		{"unaligned start", 0x1003, random(100)},
		{"frame-straddling", 3*PageBytes - 7, random(50)},
		{"exact multiple of PageBytes", 0x4000, random(3 * PageBytes)},
		{"unaligned multi-frame", 0x7ff9, random(2*PageBytes + 13)},
		{"ends on a frame boundary", 0x2f00, random(0x100)},
		{"empty", 0x9000, nil},
		{"all zero", 0x5123, make([]byte, 3*PageBytes)},
		{"zero frames then data", 0x6f00, zeroHead},
		{"zero frames inside data", 0x8fe0, zeroHole},
	}
	for _, tc := range cases {
		for _, background := range []bool{false, true} {
			ref, got := NewPhysical(), NewPhysical()
			if background {
				for a := tc.at &^ (PageBytes - 1); a < tc.at+Addr(len(tc.data))+PageBytes; a += 8 {
					v := rng.Uint64() | 1
					ref.Write64(a, v)
					got.Write64(a, v)
				}
			}
			for i, v := range tc.data {
				ref.Write8(tc.at+Addr(i), v)
			}
			got.WriteData(tc.at, tc.data)
			if !bytes.Equal(saveBytes(got), saveBytes(ref)) {
				t.Errorf("%s (background %v): Save bytes differ from the Write8 reference", tc.name, background)
			}

			// Read back a window that starts before and ends after the data.
			lo := tc.at - 9
			want := make([]byte, len(tc.data)+PageBytes+18)
			for i := range want {
				want[i] = ref.Read8(lo + Addr(i))
			}
			frames := got.FrameCount()
			if out := got.ReadData(lo, len(want)); !bytes.Equal(out, want) {
				t.Errorf("%s (background %v): ReadData differs from the Read8 reference", tc.name, background)
			}
			if got.FrameCount() != frames {
				t.Errorf("%s (background %v): ReadData allocated frames", tc.name, background)
			}
		}
	}
}

// TestWriteDataZeroChunks pins the zero-fill contract: zeroes written over
// unbacked frames allocate nothing, zeroes written over a backed frame
// still overwrite it.
func TestWriteDataZeroChunks(t *testing.T) {
	p := NewPhysical()
	p.WriteData(0x1234, make([]byte, 5*PageBytes))
	if p.FrameCount() != 0 {
		t.Fatalf("zero data over unbacked memory allocated %d frames", p.FrameCount())
	}

	// Only the frame holding a non-zero byte is backed.
	data := make([]byte, 3*PageBytes)
	data[PageBytes+17] = 0xab
	p.WriteData(0x10_0000, data)
	if p.FrameCount() != 1 || p.Read8(0x10_0000+PageBytes+17) != 0xab {
		t.Fatalf("FrameCount = %d, want only the non-zero frame backed", p.FrameCount())
	}

	// A zero chunk over that backed, non-zero frame clears it.
	p.WriteData(0x10_0000+PageBytes, make([]byte, PageBytes))
	if got := p.Read8(0x10_0000 + PageBytes + 17); got != 0 {
		t.Fatalf("zero chunk over a backed frame left %#x behind", got)
	}
	if p.FrameCount() != 1 {
		t.Fatalf("FrameCount = %d after clearing, want 1", p.FrameCount())
	}
}
