package tlb_test

import (
	"testing"

	"repro/internal/event"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/tlb"
)

// TestTLBHitRate pins the counters a main TLB's hit rate is read from
// (the dumped dtlb/itlb hits and lookups, which the port counts): every
// translation looks its main TLB up once, and only a hit counts as one.
func TestTLBHitRate(t *testing.T) {
	sched := event.NewScheduler()
	p := memsys.New(sched, mem.NewPhysical(), memsys.DefaultConfig(1)).Port(0)
	pt := tlb.NewPageTable(1, 0x4000_0000)
	pt.MapRange(0, 0x100, 16)
	p.SetProcess(1, pt)
	translate := func(va mem.VAddr, instr bool) {
		done := false
		p.Translate(va, instr, false, func(mem.Addr, bool, bool) { done = true })
		for i := 0; i < 5000 && !done; i++ {
			sched.Tick()
		}
		if !done {
			t.Fatalf("translation of %#x did not complete", va)
		}
	}
	translate(0x1000, false) // misses, walks and fills the D-TLB
	translate(0x1008, false)
	translate(0x1000, true) // the I-TLB is another TLB
	for c, want := range map[memsys.PortCounter]uint64{
		memsys.PCDTLBLookups: 2, memsys.PCDTLBHits: 1,
		memsys.PCITLBLookups: 1, memsys.PCITLBHits: 0,
	} {
		if got := p.Stat(c); got != want {
			t.Errorf("%s = %d, want %d", c.Key(0), got, want)
		}
	}
}

// TestWarmTranslateCountsNothing: the functional warm-up fills the main
// TLBs but, like the warm-up's cache deposits, counts no lookup or hit —
// those rows belong to the measured region. A detailed translation of a
// warmed page then hits without a walk and counts as one lookup, one hit.
func TestWarmTranslateCountsNothing(t *testing.T) {
	sched := event.NewScheduler()
	p := memsys.New(sched, mem.NewPhysical(), memsys.DefaultConfig(1)).Port(0)
	pt := tlb.NewPageTable(1, 0x4000_0000)
	pt.MapRange(0, 0x100, 16)
	p.SetProcess(1, pt)
	for _, w := range []struct {
		instr, miss bool
	}{{false, true}, {false, false}, {true, true}} {
		if miss := p.WarmTranslate(1, 0x101, w.instr); miss != w.miss {
			t.Fatalf("WarmTranslate(instr=%v) missed = %v, want %v", w.instr, miss, w.miss)
		}
	}
	for _, c := range []memsys.PortCounter{memsys.PCDTLBLookups, memsys.PCDTLBHits, memsys.PCITLBLookups, memsys.PCITLBHits} {
		if got := p.Stat(c); got != 0 {
			t.Errorf("after warm-up, %s = %d, want 0", c.Key(0), got)
		}
	}
	done, walked := false, true
	p.Translate(0x1008, false, false, func(_ mem.Addr, w, _ bool) { done, walked = true, w })
	if !done || walked {
		t.Fatalf("translation of a warmed page: done = %v, walked = %v; want a synchronous hit", done, walked)
	}
	if l, h := p.Stat(memsys.PCDTLBLookups), p.Stat(memsys.PCDTLBHits); l != 1 || h != 1 {
		t.Fatalf("dtlb lookups/hits = %d/%d, want 1/1", l, h)
	}
}
