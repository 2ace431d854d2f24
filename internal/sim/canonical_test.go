package sim_test

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/tlb"
)

// TestEqualStateEncodesEqually: a walk saves only what a structure's
// behaviour reads, so two structures that will behave alike save alike,
// whatever histories brought them there. Each case builds one structure
// twice, by history 0 and by history 1, and the two must save the same
// bytes: LRU stamps that order a set the same way, and busy-until cycles
// already in the past, are not state.
func TestEqualStateEncodesEqually(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, history int) *checkpoint.Snapshot
	}{
		{"cache array touched in other interleavings, one recency order", func(t *testing.T, history int) *checkpoint.Snapshot {
			a := cache.NewArray(cache.Config{Name: "l1", SizeBytes: 4096, Assoc: 4}) // 16 sets
			defer a.Release()
			const x, y, z, other = 0x0, 0x400, 0x800, 0x40 // x, y, z share set 0
			if history == 0 {
				for _, addr := range []uint64{x, y, z, other} {
					a.Fill(addr, cache.Shared)
				}
			} else {
				for _, addr := range []uint64{x, other, y, z} {
					a.Fill(addr, cache.Shared)
				}
				a.Lookup(y)
				a.Lookup(z)
			}
			return put(a.Checkpoint)
		}},
		{"TLB touched in other interleavings, one recency order", func(t *testing.T, history int) *checkpoint.Snapshot {
			tl := tlb.New("dtlb", 8)
			for vpn := uint64(1); vpn <= 3; vpn++ {
				tl.Insert(1, vpn, vpn+100)
				if history == 1 {
					tl.Lookup(1, vpn)
					tl.Lookup(1, 99)
				}
			}
			return put(tl.Checkpoint)
		}},
		{"hierarchy whose L2 port and DRAM banks went idle at other past cycles", func(t *testing.T, history int) *checkpoint.Snapshot {
			sched := event.NewScheduler()
			h := memsys.New(sched, mem.NewPhysical(), memsys.DefaultConfig(1))
			defer h.Release()
			sched.AdvanceTo(event.Cycle(300 * history))
			for _, pa := range []mem.Addr{0x1000, 0x2000} { // L1 misses: L2 port and DRAM busy
				done := false
				h.Port(0).Load(0x400100, mem.VAddr(pa), pa, false, func(memsys.AccessResult) { done = true })
				for i := 0; i < 5000 && !done; i++ {
					sched.Tick()
				}
				if !done {
					t.Fatalf("load of %#x did not complete", pa)
				}
			}
			sched.AdvanceTo(5000)
			return putRows(h.Port(0).Rows(h.Rows(nil)))
		}},
		{"core whose divider was last busy at other past cycles", func(t *testing.T, history int) *checkpoint.Snapshot {
			b := isa.NewBuilder("div")
			b.Li(isa.X(5), 1000)
			b.Li(isa.X(6), 7)
			b.Div(isa.X(7), isa.X(5), isa.X(6))
			b.Div(isa.X(8), isa.X(7), isa.X(6))
			b.Halt()
			s := sim.New(sim.DefaultConfig(1))
			defer s.Release()
			s.Sched.AdvanceTo(event.Cycle(700 * history))
			s.RunOn(0, s.NewProcess(b.MustBuild()), 0)
			if _, err := s.RunUntilHalt(100_000); err != nil {
				t.Fatal(err)
			}
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			return putRows(s.Cores[0].Rows(nil))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h0, h1 := tc.build(t, 0), tc.build(t, 1)
			if h0.Hash() != h1.Hash() {
				t.Fatalf("history 0 saves %d bytes, history 1 %d bytes: not the same", h0.Size(), h1.Size())
			}
		})
	}
}

// put saves one walk as a snapshot's only section.
func put(walk func(*checkpoint.State)) *checkpoint.Snapshot {
	return putRows([]checkpoint.Row{{Name: "s", Walk: walk}})
}

// putRows saves each row as a section of one snapshot.
func putRows(rows []checkpoint.Row) *checkpoint.Snapshot {
	snap := checkpoint.New()
	for _, r := range rows {
		snap.Put(r.Name, r.Walk)
	}
	return snap
}
