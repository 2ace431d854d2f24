package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/mem"
)

func newFC() *FilterCache {
	return NewFilterCache(DefaultDataFilterConfig())
}

func TestDefaultConfigsMatchTableOne(t *testing.T) {
	d := DefaultDataFilterConfig()
	if d.SizeBytes != 2048 || d.Assoc != 4 || d.MSHRs != 4 {
		t.Fatalf("data filter config %+v does not match Table 1", d)
	}
	i := DefaultInstFilterConfig()
	if i.SizeBytes != 2048 || i.Assoc != 4 || i.MSHRs != 4 {
		t.Fatalf("inst filter config %+v does not match Table 1", i)
	}
	if newFC().Lines() != 32 {
		t.Fatalf("2KiB filter cache should have 32 lines")
	}
}

func TestFillThenVirtualLookup(t *testing.T) {
	f := newFC()
	f.Fill(0x9000, 0x5000, cache.Shared, false, 2)
	l := f.Lookup(0x9010) // same virtual line
	if l == nil {
		t.Fatal("virtual lookup missed after fill")
	}
	if l.Tag != 0x5000 || l.VTag != 0x9000 {
		t.Fatalf("tags wrong: P=%#x V=%#x", l.Tag, l.VTag)
	}
	if l.Committed {
		t.Fatal("speculative fill must start uncommitted")
	}
	if l.FillLevel != 2 {
		t.Fatalf("fill level = %d", l.FillLevel)
	}
}

func TestSnoopByPhysical(t *testing.T) {
	f := newFC()
	f.Fill(0x9000, 0x5000, cache.Shared, false, 2)
	if f.Snoop(0x5020) == nil {
		t.Fatal("physical snoop missed")
	}
	if f.Snoop(0x9000) != nil {
		t.Fatal("snoop by virtual address should miss")
	}
}

func TestPhysicalFillResolvesAliases(t *testing.T) {
	// Two virtual pages mapping the same physical line: only one copy may
	// exist (paper §4.4).
	f := newFC()
	f.Fill(0x9000, 0x5000, cache.Shared, false, 2)
	f.Fill(0xb000, 0x5000, cache.Shared, false, 2)
	count := 0
	f.ForEach(func(l *cache.Line) {
		if l.Tag == 0x5000 {
			count++
		}
	})
	if count != 1 {
		t.Fatalf("physical line present %d times, want 1", count)
	}
	if f.Lookup(0xb000) == nil {
		t.Fatal("latest virtual alias should hit")
	}
}

func TestMarkCommitted(t *testing.T) {
	f := newFC()
	f.Fill(0x9000, 0x5000, cache.SharedExclusivePending, false, 2)
	prev, wasUnc, present := f.MarkCommitted(0x5000)
	if !present || !wasUnc || prev != cache.SharedExclusivePending {
		t.Fatalf("MarkCommitted = prev %v wasUnc %v present %v", prev, wasUnc, present)
	}
	// SE collapses to S once committed.
	if l := f.Snoop(0x5000); l.State != cache.Shared || !l.Committed {
		t.Fatalf("line after commit: %v committed=%v", l.State, l.Committed)
	}
	// Second commit of same line: present but no longer uncommitted.
	_, wasUnc, present = f.MarkCommitted(0x5000)
	if !present || wasUnc {
		t.Fatal("second commit should find a committed line")
	}
	// Absent line.
	if _, _, present := f.MarkCommitted(0x7777); present {
		t.Fatal("absent line misreported")
	}
}

func TestFlashInvalidateClearsEverythingAndReportsDrops(t *testing.T) {
	f := newFC()
	var dropped []mem.Addr
	for i := uint64(0); i < 10; i++ {
		f.Fill(mem.VAddr(0x9000+i*64), mem.Addr(0x5000+i*64), cache.Shared, false, 2)
	}
	n := f.FlashInvalidate(func(p mem.Addr) { dropped = append(dropped, p) })
	if n != 10 || len(dropped) != 10 {
		t.Fatalf("flash invalidate cleared %d, dropped %d", n, len(dropped))
	}
	if f.CountValid() != 0 {
		t.Fatal("lines remain after flash invalidate")
	}
	if n := f.FlashInvalidate(func(mem.Addr) { t.Fatal("empty flush reported a drop") }); n != 0 {
		t.Fatalf("flash invalidate of an empty filter cleared %d", n)
	}
}

func TestInvalidateSingleLine(t *testing.T) {
	f := newFC()
	f.Fill(0x9000, 0x5000, cache.Shared, true, 1)
	if st := f.Invalidate(0x5000); st != cache.Shared {
		t.Fatalf("Invalidate returned %v", st)
	}
	if f.Snoop(0x5000) != nil {
		t.Fatal("line still present")
	}
}

func TestFilterNeverOwnedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fc := newFC()
		for i := 0; i < 300; i++ {
			p := mem.Addr(rng.Intn(128)) * mem.LineBytes
			v := mem.VAddr(rng.Intn(128)) * mem.LineBytes
			switch rng.Intn(5) {
			case 0:
				st := cache.Shared
				if rng.Intn(2) == 0 {
					st = cache.SharedExclusivePending
				}
				fc.Fill(v, p, st, rng.Intn(2) == 0, uint8(rng.Intn(3)+1))
			case 1:
				fc.Lookup(v)
			case 2:
				fc.MarkCommitted(p)
			case 3:
				fc.Invalidate(p)
			case 4:
				if rng.Intn(20) == 0 {
					fc.FlashInvalidate(nil)
				}
			}
			bad := false
			fc.ForEach(func(l *cache.Line) {
				if l.State.Owned() {
					bad = true
				}
			})
			if bad {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: committed bits are monotone — once committed, a line stays
// committed until invalidated or replaced.
func TestCommittedMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fc := newFC()
		committed := map[uint64]bool{}
		for i := 0; i < 200; i++ {
			p := mem.Addr(rng.Intn(64)) * mem.LineBytes
			switch rng.Intn(3) {
			case 0:
				// refill resets tracking for that line
				fc.Fill(mem.VAddr(p)+0x1000000, p, cache.Shared, false, 2)
				delete(committed, uint64(p))
			case 1:
				if _, _, present := fc.MarkCommitted(p); present {
					committed[uint64(p)] = true
				}
			case 2:
				fc.Invalidate(p)
				delete(committed, uint64(p))
			}
			ok := true
			fc.ForEach(func(l *cache.Line) {
				if committed[l.Tag] && !l.Committed {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
