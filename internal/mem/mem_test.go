package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/event"
)

func TestPhysicalZeroFill(t *testing.T) {
	p := NewPhysical()
	if p.Read8(0x1234) != 0 {
		t.Fatal("unbacked memory should read zero")
	}
	if p.Read64(0xffff8) != 0 {
		t.Fatal("unbacked word should read zero")
	}
	if p.FrameCount() != 0 {
		t.Fatal("reads must not allocate frames")
	}
}

func TestPhysicalReadWrite64(t *testing.T) {
	p := NewPhysical()
	p.Write64(0x1000, 0x1122334455667788)
	if got := p.Read64(0x1000); got != 0x1122334455667788 {
		t.Fatalf("Read64 = %#x", got)
	}
	// Little-endian byte order.
	if p.Read8(0x1000) != 0x88 || p.Read8(0x1007) != 0x11 {
		t.Fatal("byte order wrong")
	}
}

func TestPhysicalCrossPageAccess(t *testing.T) {
	p := NewPhysical()
	a := Addr(PageBytes - 4)
	p.Write64(a, 0xa1b2c3d4e5f60718)
	if got := p.Read64(a); got != 0xa1b2c3d4e5f60718 {
		t.Fatalf("cross-page Read64 = %#x", got)
	}
	if p.FrameCount() != 2 {
		t.Fatalf("FrameCount = %d, want 2", p.FrameCount())
	}
}

func TestPhysicalBytesRoundTrip(t *testing.T) {
	p := NewPhysical()
	in := []byte{1, 2, 3, 4, 5}
	p.WriteData(0x2000, in)
	out := p.ReadData(0x2000, 5)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("ReadData = %v", out)
		}
	}
}

func TestPhysicalWord64Property(t *testing.T) {
	f := func(addr uint32, v uint64) bool {
		p := NewPhysical()
		a := Addr(addr)
		p.Write64(a, v)
		return p.Read64(a) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(Addr(0x1043)) != 0x1040 {
		t.Fatalf("LineAddr = %#x", LineAddr(Addr(0x1043)))
	}
	if LineAddr(VAddr(63)) != 0 {
		t.Fatal("LineAddr(63) should be 0")
	}
	if LineAddr(VAddr(64)) != 64 {
		t.Fatal("LineAddr(64) should be 64")
	}
}

func TestPageAndFrameNum(t *testing.T) {
	if PageNum(VAddr(0x3456)) != 3 {
		t.Fatalf("PageNum = %d", PageNum(VAddr(0x3456)))
	}
	if FrameNum(Addr(0x3456)) != 3 {
		t.Fatalf("FrameNum = %d", FrameNum(Addr(0x3456)))
	}
}

func TestDRAMRowHitFasterThanMiss(t *testing.T) {
	s := event.NewScheduler()
	d := NewDRAM(s, DefaultDRAMConfig())
	first := d.Access(0x0)
	if first != event.Cycle(DefaultDRAMConfig().RowMissLatency) {
		t.Fatalf("first access latency = %d, want row miss %d", first, DefaultDRAMConfig().RowMissLatency)
	}
	// Access to the same row but a different line in the same bank:
	// bank is line-interleaved so add Banks*LineBytes to stay in bank 0.
	cfg := DefaultDRAMConfig()
	a2 := Addr(uint64(cfg.Banks) * LineBytes)
	done2 := d.Access(a2)
	// The second access starts when bank 0 frees, then takes a row hit.
	want := first + cfg.RowHitLatency
	if done2 != want {
		t.Fatalf("second access done = %d, want %d", done2, want)
	}
}

func TestDRAMBankParallelism(t *testing.T) {
	s := event.NewScheduler()
	cfg := DefaultDRAMConfig()
	d := NewDRAM(s, cfg)
	// Two accesses to different banks overlap except for the burst gap.
	d1 := d.Access(0)
	d2 := d.Access(LineBytes) // next line, different bank
	if d2 >= d1+cfg.RowMissLatency {
		t.Fatalf("different banks did not overlap: d1=%d d2=%d", d1, d2)
	}
	if d2 != cfg.BurstGap+cfg.RowMissLatency {
		t.Fatalf("d2 = %d, want %d", d2, cfg.BurstGap+cfg.RowMissLatency)
	}
}

func TestDRAMRowConflictEvictsRow(t *testing.T) {
	s := event.NewScheduler()
	cfg := DefaultDRAMConfig()
	d := NewDRAM(s, cfg)
	d.Access(0)
	// Same bank, different row.
	other := Addr(cfg.RowBytes * uint64(cfg.Banks))
	if d.bankOf(other) != d.bankOf(0) {
		t.Fatal("test setup: expected same bank")
	}
	s.AdvanceTo(d.Access(other))
	// Back to row 0, on an idle bank: a miss again.
	if lat := d.Access(0) - s.Now(); lat != cfg.RowMissLatency {
		t.Fatalf("latency %d, want the row miss's %d: the conflicting access should have closed the row", lat, cfg.RowMissLatency)
	}
}

// TestDRAMRowHitRate: on an idle bank an access takes the row-hit latency
// exactly when it finds its row open — the first access to a bank opens
// its row, a second to the same row hits it, one to another row misses.
func TestDRAMRowHitRate(t *testing.T) {
	s := event.NewScheduler()
	cfg := DefaultDRAMConfig()
	d := NewDRAM(s, cfg)
	sameBank := Addr(uint64(cfg.Banks) * LineBytes)
	hits := 0
	for _, a := range []Addr{0, sameBank, Addr(cfg.RowBytes * uint64(cfg.Banks)), LineBytes} {
		done := d.Access(a)
		if lat := done - s.Now(); lat == cfg.RowHitLatency {
			hits++
		} else if lat != cfg.RowMissLatency {
			t.Fatalf("access to %#x took %d cycles on an idle bank", a, lat)
		}
		s.AdvanceTo(done)
	}
	if hits != 1 {
		t.Fatalf("%d of 4 accesses hit an open row, want 1", hits)
	}
}

// TestRecycledFramesReadZero fills a memory's frames with 0xff, releases
// it, and checks that a frame borrowed again by the next memory starts
// out all zero.
func TestRecycledFramesReadZero(t *testing.T) {
	const frames = 32
	for try := 0; ; try++ {
		if try == 100 {
			t.Fatal("no released frame was ever borrowed again")
		}
		old := NewPhysical()
		held := make(map[*[PageBytes]byte]bool)
		for fn := uint64(0); fn < frames; fn++ {
			old.Write8(Addr(fn*PageBytes), 1)
			f := old.frames[fn]
			for i := range f {
				f[i] = 0xff
			}
			held[f] = true
		}
		old.Release()

		p := NewPhysical()
		recycled := 0
		for fn := uint64(0); fn < frames; fn++ {
			p.Write8(Addr(fn*PageBytes+5), 0xaa)
			f := p.frames[fn]
			if held[f] {
				recycled++
			}
			if f[5] != 0xaa {
				t.Fatalf("frame %d: written byte reads %#x", fn, f[5])
			}
			f[5] = 0
			if *f != ([PageBytes]byte{}) {
				t.Fatalf("frame %d (recycled: %v) did not start out zero", fn, held[f])
			}
		}
		if recycled > 0 {
			return
		}
	}
}

// TestPhysicalUseAfterRelease: a released memory holds nothing, cannot be
// written, and may be released again.
func TestPhysicalUseAfterRelease(t *testing.T) {
	p := NewPhysical()
	p.Write64(0x1000, 7)
	p.Release()
	p.Release()
	if p.FrameCount() != 0 {
		t.Errorf("released memory still backs %d frames", p.FrameCount())
	}
	defer func() {
		if recover() == nil {
			t.Error("write after Release did not panic")
		}
	}()
	p.Write64(0x1000, 7)
}
