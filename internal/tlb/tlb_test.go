package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestPageTableMapTranslate(t *testing.T) {
	pt := NewPageTable(1, 0x100000)
	pt.Map(0x10, 0x99)
	if pfn, ok := pt.Translate(0x10); !ok || pfn != 0x99 {
		t.Fatalf("Translate = %#x,%v", pfn, ok)
	}
	if _, ok := pt.Translate(0x11); ok {
		t.Fatal("unmapped page should fail")
	}
}

func TestPageTableMapRange(t *testing.T) {
	pt := NewPageTable(1, 0x100000)
	pt.MapRange(0x100, 0x200, 16)
	for i := uint64(0); i < 16; i++ {
		pfn, ok := pt.Translate(0x100 + i)
		if !ok || pfn != 0x200+i {
			t.Fatalf("page %d: pfn=%#x ok=%v", i, pfn, ok)
		}
	}
}

func TestWalkAddrsDistinctPerLevel(t *testing.T) {
	pt := NewPageTable(1, 0x100000)
	a := pt.WalkAddrs(0x1234)
	if a[0] == a[1] {
		t.Fatal("walk levels should touch different addresses")
	}
	// Neighbouring pages share an L1 walk entry but not an L0 entry.
	b := pt.WalkAddrs(0x1235)
	if a[0] != b[0] {
		t.Fatal("pages in same 512-group should share level-1 entry")
	}
	if a[1] == b[1] {
		t.Fatal("distinct pages must differ at level 0")
	}
	c := pt.WalkAddrs(0x1234 + 512)
	if a[0] == c[0] {
		t.Fatal("pages 512 apart must differ at level 1")
	}
}

func TestTLBHitAfterInsert(t *testing.T) {
	tl := New("d", 4)
	tl.Insert(1, 0x10, 0x99)
	if pfn, ok := tl.Lookup(1, 0x10); !ok || pfn != 0x99 {
		t.Fatalf("Lookup = %#x,%v", pfn, ok)
	}
	if _, ok := tl.Lookup(2, 0x10); ok {
		t.Fatal("different ASID must miss")
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tl := New("d", 2)
	tl.Insert(1, 0xa, 1)
	tl.Insert(1, 0xb, 2)
	tl.Lookup(1, 0xa) // refresh a
	tl.Insert(1, 0xc, 3)
	if _, ok := tl.Lookup(1, 0xb); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := tl.Lookup(1, 0xa); !ok {
		t.Fatal("a should survive")
	}
	if _, ok := tl.Lookup(1, 0xc); !ok {
		t.Fatal("c should be present")
	}
}

func TestTLBDuplicateInsertUpdatesInPlace(t *testing.T) {
	tl := New("d", 4)
	tl.Insert(1, 0xa, 1)
	tl.Insert(1, 0xa, 7)
	if tl.CountValid() != 1 {
		t.Fatalf("CountValid = %d, want 1", tl.CountValid())
	}
	if pfn, _ := tl.Lookup(1, 0xa); pfn != 7 {
		t.Fatalf("pfn = %d, want 7", pfn)
	}
}

func TestTLBFlushAll(t *testing.T) {
	tl := New("d", 8)
	for i := uint64(0); i < 5; i++ {
		tl.Insert(1, i, i)
	}
	if n := tl.FlushAll(); n != 5 {
		t.Fatalf("FlushAll = %d, want 5", n)
	}
	if tl.CountValid() != 0 {
		t.Fatal("entries remain after flush")
	}
}

func TestBadTLBSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("bad", 0)
}

// Property: the TLB never exceeds capacity, never holds one (asid, vpn)
// twice, and a lookup following an insert with no intervening capacity
// pressure always hits — also after Remove (a filter-TLB promotion) has
// freed a slot in front of a translation the TLB still holds.
func TestTLBCapacityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := New("p", 8)
		for i := 0; i < 300; i++ {
			vpn := uint64(rng.Intn(64))
			asid := uint64(rng.Intn(3))
			switch rng.Intn(3) {
			case 0:
				tl.Insert(asid, vpn, vpn+100)
				if pfn, ok := tl.Lookup(asid, vpn); !ok || pfn != vpn+100 {
					return false
				}
			case 1:
				tl.Lookup(asid, vpn)
			case 2:
				tl.Remove(asid, vpn)
			}
			if tl.CountValid() > tl.Size() {
				return false
			}
			held := map[[2]uint64]bool{}
			for i, e := range tl.entries {
				if k := [2]uint64{e.ASID, e.VPN}; tl.valid[i] {
					if held[k] {
						return false
					}
					held[k] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWalkAddrsWithinReasonableRange(t *testing.T) {
	pt := NewPageTable(3, 0x2000000)
	addrs := pt.WalkAddrs(mem.PageNum(mem.VAddr(0x7ffff000)))
	for _, a := range addrs {
		if a < 0x2000000 {
			t.Fatalf("walk address %#x below walk base", a)
		}
	}
}

// FuzzPageTableMatchesMap: a page table built from any sequence of
// MapRange and Map calls — overlapping, repeated, wrapping past the top of
// the address space — translates every page exactly as a per-page map
// does in which each call overwrites the pages it names.
func FuzzPageTableMatchesMap(f *testing.F) {
	f.Add([]byte{0x10, 0x02, 0x10, 0x00})
	f.Add([]byte{0x00, 0x01, 0x20, 0x00, 0x08, 0x05, 0x04, 0x00, 0x08, 0x09, 0x01, 0x00})
	f.Add([]byte{0x03, 0x01, 0x08, 0x80, 0x00, 0x02, 0x08, 0x00})
	f.Fuzz(func(t *testing.T, ops []byte) {
		pt := NewPageTable(1, 0x100000)
		ref := make(map[uint64]uint64)
		edges := []uint64{0, ^uint64(0)} // pages just outside or at a range's ends
		check := func(vpn uint64) {
			want, wantOK := ref[vpn]
			if got, ok := pt.Translate(vpn); ok != wantOK || got != want {
				t.Fatalf("Translate(%#x) = %#x, %v; the per-page map has %#x, %v", vpn, got, ok, want, wantOK)
			}
		}
		for ; len(ops) >= 4; ops = ops[4:] {
			vpn := uint64(ops[0])
			if ops[3]&0x80 != 0 {
				vpn = ^uint64(0) - vpn // near the top: the range may wrap
			}
			pfn := uint64(ops[1])<<7 | uint64(ops[3]&0x7f)
			n := uint64(ops[2] % 48)
			if n == 1 {
				pt.Map(vpn, pfn)
			} else {
				pt.MapRange(vpn, pfn, n)
			}
			for i := uint64(0); i < n; i++ {
				ref[vpn+i] = pfn + i
			}
			edges = append(edges, vpn-1, vpn, vpn+n-1, vpn+n)
			for vpn := range ref {
				check(vpn)
			}
			for _, vpn := range edges {
				check(vpn)
			}
		}
	})
}
