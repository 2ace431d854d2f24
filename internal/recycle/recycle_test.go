package recycle

import (
	"sync"
	"testing"
)

// mustRecycle puts s and gets the same length back until the pool hands
// s's own backing array out again (sync.Pool may drop an item at any
// time, so one round is likely but not promised).
func mustRecycle(t *testing.T, p *Pool[uint64], s []uint64) []uint64 {
	t.Helper()
	for try := 0; try < 100; try++ {
		first := &s[0]
		p.Put(s)
		s = p.Get(len(s))
		if &s[0] == first {
			return s
		}
		for i := range s {
			s[i] = ^uint64(0)
		}
	}
	t.Fatal("pool never handed a returned slice out again")
	return nil
}

func TestGetIsZeroedWhetherFreshOrRecycled(t *testing.T) {
	var p Pool[uint64]
	s := p.Get(512)
	if len(s) != 512 {
		t.Fatalf("Get(512) has length %d", len(s))
	}
	for i := range s {
		if s[i] != 0 {
			t.Fatalf("fresh slice: element %d is %#x", i, s[i])
		}
		s[i] = ^uint64(0)
	}
	s = mustRecycle(t, &p, s)
	for i := range s {
		if s[i] != 0 {
			t.Fatalf("recycled slice: element %d is %#x", i, s[i])
		}
	}
}

// A slice is only ever handed out at the length it was returned with: a
// request for any other length is made fresh.
func TestOtherLengthIsAMiss(t *testing.T) {
	var p Pool[uint64]
	s := p.Get(512)
	first := &s[0]
	p.Put(s)
	for _, n := range []int{256, 511, 513, 1024} {
		got := p.Get(n)
		if len(got) != n || cap(got) != n {
			t.Errorf("Get(%d) has length %d, capacity %d", n, len(got), cap(got))
		}
		if &got[0] == first {
			t.Errorf("Get(%d) handed out the 512-element slice", n)
		}
	}
	p.Put(nil) // nothing to keep, nothing to panic about
	if got := p.Get(0); len(got) != 0 {
		t.Errorf("Get(0) has length %d", len(got))
	}
}

// Run with -race: borrowers on several goroutines never see each other's
// writes or a non-zero element.
func TestConcurrentBorrowers(t *testing.T) {
	var p Pool[uint64]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := p.Get(64 << (i % 3))
				for j := range s {
					if s[j] != 0 {
						t.Errorf("goroutine %d round %d: element %d is %#x", g, i, j, s[j])
						return
					}
					s[j] = uint64(g + 1)
				}
				p.Put(s)
			}
		}(g)
	}
	wg.Wait()
}
