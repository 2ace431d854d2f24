package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func newTest(size uint64, assoc int) *Array {
	return NewArray(Config{Name: "t", SizeBytes: size, Assoc: assoc})
}

func TestArrayGeometry(t *testing.T) {
	a := newTest(2048, 4) // 32 lines, 8 sets
	if a.Lines() != 32 || a.Sets() != 8 || a.Assoc() != 4 {
		t.Fatalf("geometry: lines=%d sets=%d assoc=%d", a.Lines(), a.Sets(), a.Assoc())
	}
	fa := NewArray(Config{Name: "fa", SizeBytes: 2048, Assoc: 32})
	if fa.Sets() != 1 || fa.Assoc() != 32 {
		t.Fatalf("fully associative geometry wrong: sets=%d", fa.Sets())
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewArray(Config{Name: "bad", SizeBytes: 0, Assoc: 4})
}

func TestNonPowerOfTwoSetsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewArray(Config{Name: "bad", SizeBytes: 3 * 64, Assoc: 1})
}

func TestLookupMissThenHit(t *testing.T) {
	a := newTest(1024, 2)
	addr := uint64(0x1000)
	if a.Lookup(addr) != nil {
		t.Fatal("empty cache should miss")
	}
	a.Fill(addr, Shared)
	l := a.Lookup(addr + 63) // same line, different offset
	if l == nil {
		t.Fatal("fill then lookup should hit")
	}
	if l.Tag != addr {
		t.Fatalf("tag = %#x, want %#x", l.Tag, addr)
	}
	if l.State != Shared {
		t.Fatalf("state = %v", l.State)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way cache: fill two lines in one set, touch the first, fill a
	// third; the second must be the victim.
	a := newTest(128, 2) // 2 lines, 1 set
	a.Fill(0x0000, Shared)
	a.Fill(0x1000, Shared)
	if a.Lookup(0x0000) == nil {
		t.Fatal("expected hit")
	}
	_, evicted, had := a.Fill(0x2000, Shared)
	if !had || evicted.Tag != 0x1000 {
		t.Fatalf("evicted %#x (had=%v), want 0x1000", evicted.Tag, had)
	}
	if a.Lookup(0x0000) == nil || a.Lookup(0x2000) == nil {
		t.Fatal("survivors missing")
	}
}

func TestVictimPrefersInvalidWay(t *testing.T) {
	a := newTest(128, 2)
	a.Fill(0x0000, Shared)
	_, _, had := a.Fill(0x1000, Shared)
	if had {
		t.Fatal("second fill should use the invalid way")
	}
}

func TestPeekDoesNotRefreshLRU(t *testing.T) {
	a := newTest(128, 2)
	a.Fill(0x0000, Shared)
	a.Fill(0x1000, Shared)
	// Peek at the older line; it must still be the LRU victim.
	if a.Peek(0x0000) == nil {
		t.Fatal("peek should find line")
	}
	_, evicted, _ := a.Fill(0x2000, Shared)
	if evicted.Tag != 0x0000 {
		t.Fatalf("evicted %#x, want 0x0000 (Peek must not refresh LRU)", evicted.Tag)
	}
}

func TestInvalidateLine(t *testing.T) {
	a := newTest(1024, 2)
	a.Fill(0x40, Modified)
	if st := a.InvalidateLine(0x40); st != Modified {
		t.Fatalf("previous state = %v, want M", st)
	}
	if a.Lookup(0x40) != nil {
		t.Fatal("line still present after invalidate")
	}
	if st := a.InvalidateLine(0x40); st != Invalid {
		t.Fatal("double invalidate should report Invalid")
	}
}

func TestInvalidateAll(t *testing.T) {
	a := newTest(1024, 2)
	for i := uint64(0); i < 10; i++ {
		a.Fill(i*64, Shared)
	}
	if n := a.InvalidateAll(); n != 10 {
		t.Fatalf("InvalidateAll = %d, want 10", n)
	}
	if a.CountValid() != 0 {
		t.Fatal("lines remain after InvalidateAll")
	}
}

func TestLookupVirtual(t *testing.T) {
	a := newTest(1024, 4)
	l, _, _ := a.Fill(0x5000, Shared)
	l.VTag = 0x9000
	if a.LookupVirtual(0x9000) == nil {
		t.Fatal("virtual lookup should hit")
	}
	if a.LookupVirtual(0x5000) != nil {
		t.Fatal("virtual lookup by physical tag should miss")
	}
}

func TestStatePredicates(t *testing.T) {
	if Invalid.Valid() {
		t.Fatal("I is not valid")
	}
	if !Modified.Owned() || !Exclusive.Owned() || Shared.Owned() {
		t.Fatal("ownership predicate wrong")
	}
	if !Shared.ProtocolShared() || !SharedExclusivePending.ProtocolShared() {
		t.Fatal("SE must look Shared to the protocol")
	}
	if Exclusive.ProtocolShared() {
		t.Fatal("E is not protocol-shared")
	}
	if SharedExclusivePending.String() != "SE" || Modified.String() != "M" {
		t.Fatal("state names wrong")
	}
}

// Property: a cache never holds two lines with the same tag, and never
// holds more valid lines than its capacity.
func TestArrayInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := newTest(512, 2) // 8 lines
		for i := 0; i < 200; i++ {
			addr := uint64(rng.Intn(32)) * mem.LineBytes
			switch rng.Intn(3) {
			case 0:
				a.Fill(addr, Shared)
			case 1:
				a.Lookup(addr)
			case 2:
				a.InvalidateLine(addr)
			}
			if a.CountValid() > a.Lines() {
				return false
			}
			seen := map[uint64]bool{}
			dup := false
			a.ForEach(func(l *Line) {
				if seen[l.Tag] {
					dup = true
				}
				seen[l.Tag] = true
			})
			if dup {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// slotRecorder is a test Waker that records woken slots in order.
type slotRecorder struct {
	woken []int32
}

func (s *slotRecorder) MSHRWake(slot int32) { s.woken = append(s.woken, slot) }

func TestMSHRCoalescing(t *testing.T) {
	f := NewMSHRFile(2)
	rec := &slotRecorder{}
	f.SetWaker(rec)
	m1, ok := f.Allocate(0x1000, 7)
	if !ok || m1 == nil {
		t.Fatal("first allocation failed")
	}
	m2, ok := f.Allocate(0x1020, 9) // same line
	if !ok || m2 != m1 {
		t.Fatal("same-line allocation should coalesce")
	}
	if f.InUse() != 1 {
		t.Fatalf("InUse = %d, want 1", f.InUse())
	}
	f.Complete(0x1000)
	if len(rec.woken) != 2 || rec.woken[0] != 7 || rec.woken[1] != 9 {
		t.Fatalf("woken slots = %v, want [7 9]", rec.woken)
	}
	if f.InUse() != 0 {
		t.Fatal("MSHR not released")
	}
}

func TestMSHRFullStalls(t *testing.T) {
	f := NewMSHRFile(1)
	f.Allocate(0x1000, NoWaiter)
	if _, ok := f.Allocate(0x2000, NoWaiter); ok {
		t.Fatal("full file should refuse new line")
	}
	if !f.Full() {
		t.Fatal("Full() should be true")
	}
	// Coalescing is still allowed when full.
	if _, ok := f.Allocate(0x1000, NoWaiter); !ok {
		t.Fatal("coalescing should succeed even when full")
	}
	f.Complete(0x1000)
	if _, ok := f.Allocate(0x2000, NoWaiter); !ok {
		t.Fatal("allocation after release should succeed")
	}
}

func TestMSHRCompleteUnknownLineIsNoop(t *testing.T) {
	f := NewMSHRFile(1)
	f.Complete(0x9999) // must not panic
}

func TestMSHRWaiterOrder(t *testing.T) {
	f := NewMSHRFile(4)
	rec := &slotRecorder{}
	f.SetWaker(rec)
	for i := int32(0); i < 5; i++ {
		f.Allocate(0x40, i)
	}
	f.Complete(0x40)
	for i, v := range rec.woken {
		if v != int32(i) {
			t.Fatalf("waiter order = %v", rec.woken)
		}
	}
}

// TestMSHRRegisterPooling verifies retired registers are reused rather
// than reallocated (the slot-parked design's no-allocation goal).
func TestMSHRRegisterPooling(t *testing.T) {
	f := NewMSHRFile(2)
	f.SetWaker(&slotRecorder{})
	m1, _ := f.Allocate(0x40, 1)
	f.Complete(0x40)
	m2, _ := f.Allocate(0x80, 2)
	if m1 != m2 {
		t.Fatal("register not recycled from the pool")
	}
	if m2.LineAddr != 0x80 || m2.Waiters() != 1 {
		t.Fatalf("recycled register state wrong: %+v", m2)
	}
}

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestRecycledArrayIsPowerOn dirties every way of an array, releases it,
// and checks that the next array built on the same lines is
// indistinguishable from one built on fresh memory: no valid line, LRU
// tick 0, and the same victim choice for the same fills.
func TestRecycledArrayIsPowerOn(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 8192, Assoc: 4}
	dirty := func(a *Array) {
		for i := 0; i < 4*a.Lines(); i++ {
			l, _, _ := a.FillPreferCommitted(uint64(i)*mem.LineBytes, Modified)
			l.VTag, l.FillLevel = ^uint64(0), 3
		}
		if a.CountValid() != a.Lines() {
			t.Fatalf("dirtied %d of %d lines", a.CountValid(), a.Lines())
		}
	}
	a := NewArray(cfg)
	for try := 0; ; try++ {
		if try == 100 {
			t.Fatal("released lines were never borrowed again")
		}
		dirty(a)
		first := &a.lines[0]
		a.Release()
		if a = NewArray(cfg); &a.lines[0] == first {
			break
		}
	}
	if n := a.CountValid(); n != 0 {
		t.Errorf("recycled array holds %d valid lines", n)
	}
	if a.tick != 0 {
		t.Errorf("recycled array starts at LRU tick %d", a.tick)
	}
	for i, l := range a.lines {
		if l != (Line{}) {
			t.Fatalf("recycled way %d is %+v", i, l)
		}
	}
	fresh := &Array{name: cfg.Name, lines: make([]Line, a.Lines()), assoc: a.assoc, setMask: a.setMask}
	for i := 0; i < 3*a.Lines(); i++ {
		addr := uint64(i*7) * mem.LineBytes
		_, evA, hadA := a.Fill(addr, Shared)
		_, evF, hadF := fresh.Fill(addr, Shared)
		if evA != evF || hadA != hadF {
			t.Fatalf("fill %d: recycled evicted %+v (%v), fresh %+v (%v)", i, evA, hadA, evF, hadF)
		}
	}
}

// TestArrayUseAfterReleasePanics: a released array has no ways, so the
// first access fails at its call site; releasing again is harmless.
func TestArrayUseAfterReleasePanics(t *testing.T) {
	a := newTest(2048, 4)
	a.Fill(0x1000, Shared)
	a.Release()
	a.Release()
	mustPanic(t, "Lookup after Release", func() { a.Lookup(0x1000) })
	mustPanic(t, "Peek after Release", func() { a.Peek(0x1000) })
	mustPanic(t, "Fill after Release", func() { a.Fill(0x2000, Shared) })
}
