package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"strings"
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

// primitives walks one of each primitive a State has.
func primitives(s *checkpoint.State) {
	var (
		u64 uint64 = 0xdeadbeefcafef00d
		u32 uint32 = 42
		u8  uint8  = 7
		ok         = true
		raw        = []byte("hello")
	)
	s.U64(&u64)
	s.U32(&u32)
	s.U8(&u8)
	s.Bool(&ok)
	checkpoint.Raw(s, raw)
}

// tinySnapshotBytes builds a minimal multi-section snapshot exercising
// every primitive a State saves.
func tinySnapshotBytes() []byte {
	s := checkpoint.New()
	s.Put("alpha", primitives)
	s.Put("empty", func(*checkpoint.State) {})
	beta := uint64(12345)
	s.Put("beta", func(s *checkpoint.State) { s.U64(&beta) })
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
		// Every named section must load, or end its load with an error
		// on an over-read or on bytes the walk left, never a panic.
		for _, name := range s.Names() {
			if err := s.Get(name, primitives); err != nil && !strings.Contains(err.Error(), "truncated") &&
				!strings.Contains(err.Error(), "left unread") {
				t.Fatalf("section %q: %v", name, err)
			}
		}
	})
}

// FuzzReaderPrimitives drives a loading State's primitives and sparse
// table over arbitrary payloads: no input may panic, a load either
// completes or ends with an error at its first failure, and a table never
// yields an index outside its capacity or out of order.
func FuzzReaderPrimitives(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint8(7))
	f.Fuzz(func(t *testing.T, payload []byte, order uint8) {
		s := checkpoint.New()
		s.Put("p", func(s *checkpoint.State) { checkpoint.Raw(s, payload) })
		dec, err := checkpoint.Decode(s.Encode())
		if err != nil {
			t.Fatalf("round trip of fuzz payload failed: %v", err)
		}
		// Interleave primitive reads in a fuzz-chosen order.
		done := 0
		err = dec.Get("p", func(s *checkpoint.State) {
			for i := 0; i < 16; i++ {
				switch (int(order) + i) % 7 {
				case 0:
					var v uint64
					s.U64(&v)
				case 1:
					var v uint32
					s.U32(&v)
				case 2:
					var v uint8
					s.U8(&v)
				case 3:
					var v bool
					s.Bool(&v)
				case 4, 5:
					capacity, prev := int(order), -1
					tb := s.Table(capacity, nil)
					for idx := tb.First(); tb.More(idx); idx = tb.Next(idx) {
						if !tb.Holds(idx, false) {
							continue
						}
						if idx >= capacity || idx <= prev {
							t.Fatalf("table of %d yielded index %d after %d", capacity, idx, prev)
						}
						prev = idx
					}
					tb.End()
				case 6:
					checkpoint.Raw(s, make([]byte, order))
				}
				done++
			}
		})
		if err == nil && done != 16 {
			t.Fatalf("load stopped after %d reads without an error", done)
		}
	})
}
