package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/simtest"
)

// fuzzTB adapts *testing.F to simtest.TB for corpus construction.
type fuzzTB struct{ *testing.F }

func (f fuzzTB) Helper() {}

// realSnapshotBytes encodes a genuine machine snapshot — registers,
// caches, TLBs, predictor, DRAM state, the works — so the fuzzer starts
// from the corpus the decoder actually faces in production, not just
// hand-rolled toys.
func realSnapshotBytes(f *testing.F) []byte {
	sys := simtest.WarmSystem(fuzzTB{f}, "hmmer", 0.02, 500)
	snap, err := sys.Checkpoint()
	if err != nil {
		f.Fatalf("seed snapshot: %v", err)
	}
	return snap.Encode()
}

// tinySnapshotBytes builds a minimal multi-section snapshot exercising
// every primitive the Writer emits.
func tinySnapshotBytes() []byte {
	s := checkpoint.New()
	w := s.Section("alpha")
	w.U64(0xdeadbeefcafef00d)
	w.U32(42)
	w.U8(7)
	w.Bool(true)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	s.Section("empty")
	w2 := s.Section("beta")
	w2.I64(-12345)
	return s.Encode()
}

// FuzzDecode hammers the snapshot container decoder: arbitrary inputs —
// truncations, bit flips, wrong versions, hostile section counts and
// length fields — must either decode cleanly or return an error; never
// panic, never over-allocate against a tiny input, and anything that
// decodes must re-encode byte-identically (the canonical-form property
// the content-addressed store's hashing depends on).
func FuzzDecode(f *testing.F) {
	real := realSnapshotBytes(f)
	tiny := tinySnapshotBytes()
	f.Add([]byte{})
	f.Add([]byte("MTSNAP\r\n"))
	f.Add(tiny)
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(real[:len(real)-1])
	// Wrong container version.
	wrongVer := bytes.Clone(tiny)
	binary.LittleEndian.PutUint32(wrongVer[8:], 999)
	f.Add(wrongVer)
	// Hostile section count with no payload behind it.
	hostile := bytes.Clone(tiny[:16])
	binary.LittleEndian.PutUint32(hostile[12:], 0xffffffff)
	f.Add(hostile)
	// Flip a byte in the middle of a section payload.
	corrupt := bytes.Clone(tiny)
	corrupt[len(corrupt)/2] ^= 0x80
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := checkpoint.Decode(b)
		if err != nil {
			return // rejected: exactly what corrupt input must produce
		}
		enc := s.Encode()
		if !bytes.Equal(enc, b) {
			t.Fatalf("decode/encode not canonical: %d in, %d out", len(b), len(enc))
		}
		// Every named section must open, and its reader must survive
		// arbitrary over-reads (errors stick, getters return zeros).
		for _, name := range s.Names() {
			r, err := s.Open(name)
			if err != nil {
				t.Fatalf("section %q listed but will not open: %v", name, err)
			}
			r.U64()
			r.Bytes()
			r.U32()
			_ = r.String()
			r.U8()
			r.Bool()
			_ = r.Err()
		}
	})
}

// FuzzReaderPrimitives drives the section reader's primitive decoders
// over arbitrary payloads: no input may panic, and the first error must
// stick (later reads return zero values).
func FuzzReaderPrimitives(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint8(7))
	f.Fuzz(func(t *testing.T, payload []byte, order uint8) {
		s := checkpoint.New()
		w := s.Section("p")
		w.Bytes(payload)
		dec, err := checkpoint.Decode(s.Encode())
		if err != nil {
			t.Fatalf("round trip of fuzz payload failed: %v", err)
		}
		r, err := dec.Open("p")
		if err != nil {
			t.Fatal(err)
		}
		// Interleave primitive reads in a fuzz-chosen order; once Err is
		// non-nil it must never reset.
		sawErr := false
		for i := 0; i < 16; i++ {
			switch (int(order) + i) % 9 {
			case 0:
				r.U64()
			case 1:
				r.U32()
			case 2:
				r.U8()
			case 3:
				r.Bool()
			case 4:
				r.Bytes()
			case 5:
				_ = r.String()
			case 6, 7:
				tr, prev := r.Table(int(order)), -1
				for idx, ok := tr.Next(); ok; idx, ok = tr.Next() {
					if idx >= int(order) || idx <= prev {
						t.Fatalf("table of %d yielded index %d after %d", order, idx, prev)
					}
					prev = idx
				}
			case 8:
				if b := r.Raw(int(order)); b != nil && len(b) != int(order) {
					t.Fatalf("Raw(%d) returned %d bytes", order, len(b))
				}
			}
			if r.Err() != nil {
				sawErr = true
			} else if sawErr {
				t.Fatal("reader error did not stick")
			}
		}
	})
}
