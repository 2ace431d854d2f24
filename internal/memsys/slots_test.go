package memsys

import (
	"testing"

	"repro/internal/mem"
)

// TestSlotsReuseLastFreedFirst pins the registry behaviour every parked
// port path relies on: slots are handed out in order while none is free,
// then reused last-freed-first, and live counts what is parked.
func TestSlotsReuseLastFreedFirst(t *testing.T) {
	var s slots[int]
	for i := 0; i < 4; i++ {
		if got := s.put(10 + i); got != int32(i) {
			t.Fatalf("put %d landed in slot %d, want %d", i, got, i)
		}
	}
	if s.live() != 4 {
		t.Fatalf("live = %d after 4 puts, want 4", s.live())
	}
	if v := s.take(1); v != 11 {
		t.Fatalf("take(1) = %d, want 11", v)
	}
	if v := s.take(3); v != 13 {
		t.Fatalf("take(3) = %d, want 13", v)
	}
	if s.live() != 2 {
		t.Fatalf("live = %d after 2 takes, want 2", s.live())
	}
	for _, want := range []int32{3, 1, 4} {
		if got := s.put(20); got != want {
			t.Fatalf("put reused slot %d, want %d", got, want)
		}
	}
	if s.live() != 5 {
		t.Fatalf("live = %d, want 5", s.live())
	}
	*s.at(4) = 7
	if v := s.take(4); v != 7 {
		t.Fatalf("value written through at(4) read back as %d, want 7", v)
	}
}

// TestSlotsTakeZeroesTheSlot: a taken value must not stay reachable from
// the registry, so a parked closure (and everything it captures) is
// collectable as soon as its delivery event has run.
func TestSlotsTakeZeroesTheSlot(t *testing.T) {
	var s slots[func()]
	ran := false
	slot := s.put(func() { ran = true })
	s.take(slot)()
	if !ran {
		t.Fatal("taken closure is not the one parked")
	}
	if s.vals[slot] != nil {
		t.Fatal("take left the closure in its slot")
	}
	if s.live() != 0 {
		t.Fatalf("live = %d after the only take, want 0", s.live())
	}

	var w slots[ptwalk]
	ws := w.put(ptwalk{vpn: 9, cm: tcomp{fn: func(mem.Addr, bool, bool) {}}})
	w.take(ws)
	if w.vals[ws].cm.fn != nil || w.vals[ws].vpn != 0 {
		t.Fatal("take left the walk's fields in its slot")
	}
}
