package mem

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/event"
)

func TestPhysicalSaveRestoreRoundTrip(t *testing.T) {
	a := NewPhysical()
	a.Write64(0x1000, 0xdeadbeefcafef00d)
	a.Write64(0x10_0008, 42)
	a.WriteData(0x2_0000, []byte{1, 2, 3})
	a.Write8(0x3_0000, 0) // touched but all-zero frame: elided

	snap := checkpoint.New()
	snap.Put("phys", a.Checkpoint)
	b := NewPhysical()
	b.Write64(0x9000, 77) // pre-existing contents must be replaced
	if err := snap.Get("phys", b.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if b.Read64(0x1000) != 0xdeadbeefcafef00d || b.Read64(0x10_0008) != 42 {
		t.Fatal("contents lost")
	}
	if b.Read8(0x2_0002) != 3 {
		t.Fatal("byte data lost")
	}
	if b.Read64(0x9000) != 0 {
		t.Fatal("restore did not replace prior contents")
	}
	if got := b.FrameCount(); got != 3 {
		t.Fatalf("restored memory backs %d frames, want the image's 3 (prior frames are handed back)", got)
	}
	// Elided zero frame still reads zero.
	if b.Read8(0x3_0000) != 0 {
		t.Fatal("zero frame corrupted")
	}
}

func TestPhysicalSaveIsCanonical(t *testing.T) {
	mk := func(order []Addr) string {
		p := NewPhysical()
		for i, a := range order {
			p.Write64(a, uint64(i+1)*0x1111)
		}
		// Same final contents regardless of order below.
		p.Write64(0x1000, 5)
		p.Write64(0x2000, 6)
		p.Write64(0x3000, 7)
		s := checkpoint.New()
		s.Put("phys", p.Checkpoint)
		return s.Hash()
	}
	a := mk([]Addr{0x1000, 0x2000, 0x3000})
	b := mk([]Addr{0x3000, 0x1000, 0x2000})
	if a != b {
		t.Fatal("map iteration order leaked into the encoding")
	}
}

func TestDRAMSaveRestoreRoundTrip(t *testing.T) {
	sched := event.NewScheduler()
	a := NewDRAM(sched, DefaultDRAMConfig())
	for i := 0; i < 20; i++ {
		a.Access(Addr(i * 64))
	}
	snap := checkpoint.New()
	snap.Put("dram", a.Checkpoint)
	b := NewDRAM(sched, DefaultDRAMConfig())
	if err := snap.Get("dram", b.Checkpoint); err != nil {
		t.Fatal(err)
	}
	again := checkpoint.New()
	if again.Put("dram", b.Checkpoint); again.Hash() != snap.Hash() {
		t.Fatal("restored DRAM saves other bytes")
	}
	// Timing state restored: the next access must see the same latency.
	ta := a.Access(0x40)
	tb := b.Access(0x40)
	if ta != tb {
		t.Fatalf("timing state diverged: %d vs %d", ta, tb)
	}
}
