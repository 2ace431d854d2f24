package sim_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// physAddr translates a mapped virtual address of p.
func physAddr(t *testing.T, p *sim.Process, va uint64) mem.Addr {
	t.Helper()
	pfn, ok := p.PT.Translate(va >> mem.PageShift)
	if !ok {
		t.Fatalf("va %#x unmapped", va)
	}
	return mem.Addr(pfn<<mem.PageShift | va%mem.PageBytes)
}

// TestSharedSegmentInitialisedOnce: only the process whose load allocates a
// shared segment's frames initialises them. A later process mapping the
// segment shares the frames and sees their live contents — it must not
// reset them to the image's initial bytes.
func TestSharedSegmentInitialisedOnce(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	b := isa.NewBuilder("sh")
	shared := b.Segment("sh", 0x3000_0000, []byte{9, 9, 9, 9, 9, 9, 9, 9}, true)
	b.Halt()
	prog := b.MustBuild()

	p1 := s.NewProcess(prog)
	pa := physAddr(t, p1, shared)
	if got := s.Phys.Read64(pa); got != 0x0909090909090909 {
		t.Fatalf("first load initialised the segment to %#x", got)
	}
	const marker uint64 = 0xfeedface_0badcafe
	s.Phys.Write64(pa, marker)

	p2 := s.NewProcess(prog)
	if physAddr(t, p2, shared) != pa {
		t.Fatal("shared segment should map the same frames")
	}
	if got := s.Phys.Read64(pa); got != marker {
		t.Fatalf("second load re-initialised the shared segment: %#x, want the marker %#x", got, marker)
	}
}

// TestSegmentPageMapping pins how many pages a data segment maps (and so
// how many frames it consumes, which fixes every later frame number): from
// the page holding its first byte to the page holding its last, for
// zero-length and mid-page-start segments too, identically for zero-fill
// and initialised segments.
func TestSegmentPageMapping(t *testing.T) {
	const base = 0x2000_0000
	cases := []struct {
		name      string
		base, len uint64
		pages     uint64
	}{
		{"zero-length, page-aligned", base, 0, 0},
		{"zero-length, mid-page", base + 0x10, 0, 1},
		{"one aligned page", base, mem.PageBytes, 1},
		{"aligned page plus one byte", base, mem.PageBytes + 1, 2},
		{"mid-page start ending on the boundary", base + 0xf00, 0x100, 1},
		{"mid-page start straddling one byte", base + 0xf00, 0x101, 2},
		{"mid-page start, two pages long", base + 0x800, 2 * mem.PageBytes, 3},
	}
	for _, tc := range cases {
		for _, zeroFill := range []bool{true, false} {
			label := fmt.Sprintf("%s (zero-fill %v)", tc.name, zeroFill)
			data := make([]byte, tc.len)
			for i := range data {
				data[i] = byte(i%251) + 1
			}
			b := isa.NewBuilder("seg")
			before := b.Segment("before", 0x1800_0000, []byte{1}, false)
			if zeroFill {
				b.ZeroSegment("seg", tc.base, tc.len, false)
			} else {
				b.Segment("seg", tc.base, data, false)
			}
			after := b.Segment("after", 0x2800_0000, []byte{2}, false)
			b.Halt()
			s := sim.New(sim.DefaultConfig(1))
			p := s.NewProcess(b.MustBuild())

			// Frames are handed out in segment order, so the frames between
			// the one-page sentinels are exactly the segment's.
			pfnBefore, _ := p.PT.Translate(before >> mem.PageShift)
			pfnAfter, _ := p.PT.Translate(after >> mem.PageShift)
			if got := pfnAfter - pfnBefore - 1; got != tc.pages {
				t.Errorf("%s: consumed %d frames, want %d", label, got, tc.pages)
			}
			vpn := tc.base >> mem.PageShift
			for i := uint64(0); i <= tc.pages; i++ {
				pfn, ok := p.PT.Translate(vpn + i)
				if want := i < tc.pages; ok != want {
					t.Errorf("%s: page %d mapped = %v, want %v", label, i, ok, want)
				} else if ok && pfn != pfnBefore+1+i {
					t.Errorf("%s: page %d in frame %#x, want contiguous %#x", label, i, pfn, pfnBefore+1+i)
				}
			}
			for i := uint64(0); i < tc.len; i += 509 {
				want := byte(0)
				if !zeroFill {
					want = data[i]
				}
				if got := s.Phys.Read8(physAddr(t, p, tc.base+i)); got != want {
					t.Fatalf("%s: byte %d = %#x, want %#x", label, i, got, want)
				}
			}
		}
	}
}

// zeroSegProgram is a kernel whose loads, stores and data-dependent
// branches run through three zero segments (one starting mid-page, one
// large, one shared) beside an initialised one. With explicit set the zero
// segments are given as initialised segments holding explicit zero bytes;
// otherwise they are zero-fill.
func zeroSegProgram(explicit bool) *isa.Program {
	b := isa.NewBuilder("zeroseg")
	zero := func(name string, size, align uint64) uint64 {
		if explicit {
			return b.AllocInit(name, make([]byte, size), align)
		}
		return b.Alloc(name, size, align)
	}
	zero("head", 64, 64)
	buf := zero("buf", 2*mem.PageBytes+40, 64) // starts mid-page, after head
	big := zero("big", 64*1024, mem.PageBytes)
	// On a page of its own: a segment sharing a page with an earlier one
	// remaps that page, which only zero segments survive.
	table := b.AllocInit("table", []byte{3, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0}, mem.PageBytes)
	const sharedBase, sharedLen = 0x3000_0000, 2 * mem.PageBytes
	if explicit {
		b.Segment("shared", sharedBase, make([]byte, sharedLen), true)
	} else {
		b.ZeroSegment("shared", sharedBase, sharedLen, true)
	}

	b.Li(isa.X(5), big)
	b.Li(isa.X(6), buf)
	b.Li(isa.X(7), sharedBase)
	b.Li(isa.X(17), table)
	b.Li(isa.X(8), 0)   // i
	b.Li(isa.X(9), 600) // trip count
	b.Li(isa.X(10), 0)  // acc
	b.Label("loop")
	b.Shli(isa.X(11), isa.X(8), 6)
	b.Add(isa.X(12), isa.X(5), isa.X(11))
	b.Load(isa.X(13), isa.X(12), 0) // big[i*64]: zero
	b.Shli(isa.X(14), isa.X(8), 3)
	b.Andi(isa.X(14), isa.X(14), 0x1ff8)
	b.Add(isa.X(15), isa.X(6), isa.X(14))
	b.Load(isa.X(16), isa.X(15), 0) // buf counter, read-modify-write
	b.Addi(isa.X(16), isa.X(16), 1)
	b.Store(isa.X(16), isa.X(15), 0)
	b.Bne(isa.X(13), isa.Zero, "nonzero") // steered by the zero data
	b.Andi(isa.X(18), isa.X(8), 8)
	b.Add(isa.X(18), isa.X(18), isa.X(17))
	b.Load(isa.X(19), isa.X(18), 0) // table[0] or table[1]
	b.Add(isa.X(10), isa.X(10), isa.X(19))
	b.Jmp("next")
	b.Label("nonzero")
	b.Addi(isa.X(10), isa.X(10), 1000)
	b.Label("next")
	b.Andi(isa.X(20), isa.X(8), 0x3f8)
	b.Add(isa.X(20), isa.X(20), isa.X(7))
	b.Store(isa.X(10), isa.X(20), 0) // shared[...] = acc
	b.Addi(isa.X(8), isa.X(8), 1)
	b.Blt(isa.X(8), isa.X(9), "loop")
	b.Halt()
	return b.MustBuild()
}

// TestZeroFillEqualsExplicitZeroes: "initialised with zeroes" and
// "zero-fill" are indistinguishable to the simulated machine. The explicit
// machine additionally has every zero page backed by a real frame, so the
// comparison also proves that frame existence is observable nowhere: not
// in the checkpoint's content hash, not in cycles, committed instructions
// or any counter.
func TestZeroFillEqualsExplicitZeroes(t *testing.T) {
	for _, sch := range []defense.Scheme{defense.Insecure(), defense.MuonTrap()} {
		load := func(explicit bool) *sim.System {
			cfg := sim.DefaultConfig(1)
			cfg.CPU.Defense = sch.CPU
			cfg.Mem.Mode = sch.Mode
			s := sim.New(cfg)
			prog := zeroSegProgram(explicit)
			p := s.NewProcess(prog)
			if explicit {
				for _, seg := range prog.Data {
					for off := uint64(0); off < seg.Len(); off += mem.PageBytes {
						pa := physAddr(t, p, seg.Base+off)
						s.Phys.Write8(pa, s.Phys.Read8(pa)) // back the frame, keep its content
					}
				}
			}
			s.RunOn(0, p, 0)
			return s
		}
		zf, ex := load(false), load(true)
		if zf.Phys.FrameCount() >= ex.Phys.FrameCount() {
			t.Fatalf("%s: zero-fill machine backs %d frames, explicit %d: the test no longer compares unbacked against backed",
				sch.Name, zf.Phys.FrameCount(), ex.Phys.FrameCount())
		}
		sameHash := func(when string, snapshot func(*sim.System) (*checkpoint.Snapshot, error)) {
			t.Helper()
			a, err := snapshot(zf)
			if err != nil {
				t.Fatal(err)
			}
			b, err := snapshot(ex)
			if err != nil {
				t.Fatal(err)
			}
			if a.Hash() != b.Hash() {
				t.Fatalf("%s: checkpoint hashes differ %s", sch.Name, when)
			}
		}
		sameHash("after load", (*sim.System).Checkpoint)
		ra, err := zf.RunUntilHalt(5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := ex.RunUntilHalt(5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		simtest.ResultsEqual(t, sch.Name, ra, rb)
		if zf.Cores[0].Reg(isa.X(10)) != 304*3+296*5 { // i&8 is clear in 304 of the 600 trips
			t.Fatalf("%s: acc = %d, the kernel did not run as written", sch.Name, zf.Cores[0].Reg(isa.X(10)))
		}
		sameHash("after the run", func(s *sim.System) (*checkpoint.Snapshot, error) {
			return s.CheckpointAt(context.Background(), 0)
		})
	}
}

// TestRemappingInitialisedBytesPanics: a page table keeps the last mapping
// of a page, so a segment that shares a page with an earlier initialised
// segment would hide that segment's bytes behind fresh frames. The load
// refuses it when a hidden byte is non-zero, and names both segments.
func TestRemappingInitialisedBytesPanics(t *testing.T) {
	const base = 0x2000_0000
	load := func(build func(b *isa.Builder)) (msg any) {
		b := isa.NewBuilder("remap")
		build(b)
		b.Halt()
		prog := b.MustBuild()
		defer func() { msg = recover() }()
		sim.New(sim.DefaultConfig(1)).NewProcess(prog)
		return nil
	}
	fine := map[string]func(b *isa.Builder){
		"an initialised segment after a zero-fill one on its page": func(b *isa.Builder) {
			b.ZeroSegment("zeros", base, 64, false)
			b.Segment("init", base+64, []byte{1, 2, 3}, false)
		},
		"a segment on the page after an initialised one": func(b *isa.Builder) {
			b.Segment("init", base, []byte{1, 2, 3}, false)
			b.ZeroSegment("next page", base+mem.PageBytes, 64, false)
		},
		"a segment on a page where an earlier one holds only zeroes": func(b *isa.Builder) {
			b.Segment("init", base+mem.PageBytes-8, []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0}, false)
			b.ZeroSegment("mailbox", base+mem.PageBytes+64, 8, false)
		},
	}
	for name, build := range fine {
		if msg := load(build); msg != nil {
			t.Errorf("%s panicked: %v", name, msg)
		}
	}
	msg := load(func(b *isa.Builder) {
		b.Segment("table", base+mem.PageBytes-8, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, false)
		b.ZeroSegment("mailbox", base+mem.PageBytes+64, 8, false)
	})
	want := `sim: program "remap": segment "mailbox" remaps a page holding segment "table"'s initialised bytes`
	if msg != want {
		t.Errorf("remapping an initialised segment's second page: panic %v, want %q", msg, want)
	}
}
