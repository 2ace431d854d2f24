package main

import (
	"runtime"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tlb"
)

// The ladder's micro rungs: in-process drivers looping over one layer's
// exported functions. Each rung reports the median over a few repetitions
// of a calibrated batch, in nanoseconds per operation. They measure the
// simulator's host cost, never simulated time.

// rungReps is how many timed batches a rung takes the median of.
const rungReps = 5

// sink keeps results alive so the compiler cannot drop a measured call.
var sink uint64

// nsPerOp times fn(n) — n operations — in batches sized to last about
// budget each, and returns the median nanoseconds per operation.
func nsPerOp(budget time.Duration, fn func(n int)) float64 {
	n := 256
	for {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		if d >= budget/4 || n >= 1<<28 {
			n = max(int(float64(n)*float64(budget)/float64(max(d, time.Microsecond))), 1)
			break
		}
		n *= 4
	}
	var xs []float64
	for i := 0; i < rungReps; i++ {
		t0 := time.Now()
		fn(n)
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(xs)
}

// allocsPerOp counts heap allocations per operation of fn(n). The count is
// process-wide, so a background goroutine can only add to it: the least of
// three runs is the operation's own, and repeats exactly.
func allocsPerOp(n int, fn func(n int)) float64 {
	fn(n) // warm pools and backing arrays
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn(n)
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return float64(least) / float64(n)
}

type countHandler struct{ n uint64 }

func (h *countHandler) HandleEvent(op int32, a1, a2 uint64) { h.n++ }

// microRungs runs every rung below the memory hierarchy and the pipeline.
func microRungs(budget time.Duration, m map[string]float64) {
	// event: the simulator's characteristic mix — three near-future typed
	// events per tick — and the >64-cycle heap path on its own.
	{
		s, h := event.NewScheduler(), &countHandler{}
		near := func(n int) {
			for i := 0; i < n; i++ {
				s.AfterEvent(1, h, 0, 0, 0)
				s.AfterEvent(2, h, 0, 0, 0)
				s.AfterEvent(14, h, 0, 0, 0)
				s.Tick()
			}
		}
		m["event.ns_per_event"] = nsPerOp(budget, near) / 3
		m["event.allocs_per_event"] = allocsPerOp(20_000, near) / 3
		far := func(n int) {
			for i := 0; i < n; i++ {
				s.AfterEvent(180, h, 0, 0, 0)
				s.Tick()
			}
		}
		m["event.ns_per_far_event"] = nsPerOp(budget, far)
		sink += h.n
	}

	// isa: functional execution of a predecoded mixed block, and the
	// predecode itself.
	{
		b := isa.NewBuilder("rung")
		for i := 0; i < 256; i++ {
			switch i % 4 {
			case 0:
				b.Add(isa.X(5), isa.X(6), isa.X(7))
			case 1:
				b.Load(isa.X(8), isa.X(5), 8)
			case 2:
				b.Beq(isa.X(5), isa.X(6), "end")
			case 3:
				b.Store(isa.X(8), isa.X(5), 16)
			}
		}
		b.Label("end")
		b.Halt()
		p := b.MustBuild()
		m["isa.ns_per_exec"] = nsPerOp(budget, func(n int) {
			acc := uint64(1)
			for i := 0; i < n; i++ {
				pc := isa.TextBase + uint64(i%256)*isa.InstBytes
				si, _ := p.StaticAt(pc)
				acc += isa.Exec(si.Inst, pc, acc, 2).Value + uint64(si.Class)
			}
			sink += acc
		})
		m["isa.predecode_ns_per_inst"] = nsPerOp(budget, func(n int) {
			acc := uint64(0)
			for i := 0; i < n; i++ {
				si := isa.NewStaticInst(p.Text[i%256])
				acc += uint64(si.Class)
			}
			sink += acc
		})
	}

	// mem: functional memory and the DRAM timing model.
	{
		phys := mem.NewPhysical()
		for a := mem.Addr(0); a < 1<<20; a += mem.PageBytes {
			phys.Write64(a, uint64(a))
		}
		m["mem.ns_per_read64"] = nsPerOp(budget, func(n int) {
			acc := uint64(0)
			for i := 0; i < n; i++ {
				acc += phys.Read64(mem.Addr(i*mem.LineBytes) & (1<<20 - 1))
			}
			sink += acc
		})
		s := event.NewScheduler()
		d := mem.NewDRAM(s, mem.DefaultDRAMConfig())
		m["mem.ns_per_dram_access"] = nsPerOp(budget, func(n int) {
			acc := event.Cycle(0)
			for i := 0; i < n; i++ {
				acc += d.Access(mem.Addr(i*4160) & (1<<26 - 1))
				s.Tick()
			}
			sink += uint64(acc)
		})
	}

	// cache: a 64 KiB 4-way array (the L1D shape), hits and conflict fills.
	{
		a := cache.NewArray(cache.Config{Name: "rung", SizeBytes: 64 << 10, Assoc: 4})
		for addr := uint64(0); addr < 64<<10; addr += mem.LineBytes {
			a.Fill(addr, cache.Shared)
		}
		m["cache.ns_per_lookup"] = nsPerOp(budget, func(n int) {
			hits := uint64(0)
			for i := 0; i < n; i++ {
				if a.Lookup(uint64(i*mem.LineBytes)&(64<<10-1)) != nil {
					hits++
				}
			}
			sink += hits
		})
		m["cache.ns_per_fill"] = nsPerOp(budget, func(n int) {
			for i := 0; i < n; i++ {
				a.Fill(uint64(i)*mem.LineBytes, cache.Shared) // streams through every set, evicting
			}
		})
	}

	// tlb, bpred, prefetch: one steady-state operation each.
	{
		t := tlb.New("rung", 64)
		for vpn := uint64(0); vpn < 64; vpn++ {
			t.Insert(1, vpn, vpn+100)
		}
		m["tlb.ns_per_lookup"] = nsPerOp(budget, func(n int) {
			acc := uint64(0)
			for i := 0; i < n; i++ {
				pfn, _ := t.Lookup(1, uint64(i&63))
				acc += pfn
			}
			sink += acc
		})
		bp := bpred.New(bpred.DefaultConfig())
		m["bpred.ns_per_predict_update"] = nsPerOp(budget, func(n int) {
			taken := 0
			for i := 0; i < n; i++ {
				pc := isa.TextBase + uint64(i&1023)*isa.InstBytes
				pr := bp.PredictBranch(pc)
				actual := i%3 != 0
				bp.Update(pc, pr, actual, pc+64, true)
				if pr.Taken {
					taken++
				}
			}
			sink += uint64(taken)
		})
		pf := prefetch.New(prefetch.DefaultConfig())
		m["prefetch.ns_per_observe"] = nsPerOp(budget, func(n int) {
			for i := 0; i < n; i++ {
				pf.Observe(isa.TextBase+uint64(i&15)*isa.InstBytes, mem.Addr(i*mem.LineBytes))
			}
		})
	}

	// core: the filter cache on its own.
	{
		f := core.NewFilterCache(core.DefaultDataFilterConfig())
		lines := f.Lines()
		fill := func() {
			for i := 0; i < lines; i++ {
				a := uint64(i * mem.LineBytes)
				f.Fill(mem.VAddr(a), mem.Addr(a), cache.Shared, false, 0)
			}
		}
		fill()
		m["core.ns_per_filter_lookup"] = nsPerOp(budget, func(n int) {
			hits := uint64(0)
			for i := 0; i < n; i++ {
				if f.Lookup(mem.VAddr((i%lines)*mem.LineBytes)) != nil {
					hits++
				}
			}
			sink += hits
		})
		m["core.ns_per_filter_fill"] = nsPerOp(budget, func(n int) {
			for i := 0; i < n; i++ {
				a := uint64(i) * mem.LineBytes
				f.Fill(mem.VAddr(a), mem.Addr(a), cache.Shared, false, 0)
			}
		})
		m["core.ns_per_flash_invalidate"] = nsPerOp(budget, func(n int) {
			dropped := 0
			for i := 0; i < n; i++ {
				fill()
				dropped += f.FlashInvalidate(nil)
			}
			sink += uint64(dropped)
		})
	}

	// telemetry: the counter increment the daemon's hot paths perform.
	{
		reg := telemetry.NewRegistry()
		c := reg.Counter("rung_total", "rung")
		m["telemetry.ns_per_counter_inc"] = nsPerOp(budget, func(n int) {
			for i := 0; i < n; i++ {
				c.Inc()
			}
		})
		sink += c.Value()
	}
}

// memRig is a hierarchy with per-core address spaces, driven directly
// through its ports.
type memRig struct {
	sched *event.Scheduler
	h     *memsys.Hierarchy
}

var muontrapMode = memsys.Mode{
	L0Data: true, L0Inst: true,
	FilterProtect: true, CoherenceProtect: true,
	CommitPrefetch: true, FilterTLB: true,
}

// rigWindow is the shared virtual/physical window every core of a memRig
// maps identically; below it each core has 16 MiB of private pages.
const rigWindow = 0x2000_0000

func newMemRig(cores int, mode memsys.Mode) *memRig {
	sched := event.NewScheduler()
	cfg := memsys.DefaultConfig(cores)
	cfg.Mode = mode
	h := memsys.New(sched, mem.NewPhysical(), cfg)
	for i := 0; i < cores; i++ {
		pt := tlb.NewPageTable(uint64(i+1), mem.Addr(0x4000_0000+uint64(i)*0x100_0000))
		pt.MapRange(0, uint64(i+1)<<12, 4096)
		pt.MapRange(rigWindow>>mem.PageShift, rigWindow>>mem.PageShift, 256)
		h.Port(i).SetProcess(uint64(i+1), pt)
	}
	return &memRig{sched: sched, h: h}
}

// wait ticks the clock until *done, giving up after bound cycles.
func (r *memRig) wait(done *bool, bound int) {
	for i := 0; i < bound && !*done; i++ {
		r.sched.Tick()
	}
}

// load issues one speculative load on core c and runs it to completion.
func (r *memRig) load(c int, va mem.VAddr, pa mem.Addr) memsys.FillLevel {
	var level memsys.FillLevel
	done := false
	r.h.Port(c).Load(0x400100, va, pa, true, func(ar memsys.AccessResult) { level, done = ar.Level, true })
	r.wait(&done, 5000)
	return level
}

// private maps a private virtual address of core c to its physical one.
func private(c int, va mem.VAddr) mem.Addr {
	return mem.Addr(uint64(c+1)<<24) + mem.Addr(va)
}

// memsysRungs drives the hierarchy through Port plus scheduler ticks.
func memsysRungs(budget time.Duration, m map[string]float64) {
	// L0 hit (filter cache) and L1 hit: the same line, again and again.
	{
		r := newMemRig(1, muontrapMode)
		r.load(0, 0x1000, private(0, 0x1000))
		m["memsys.ns_per_l0_hit"] = nsPerOp(budget, func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(r.load(0, 0x1000, private(0, 0x1000)))
			}
		})
		m["memsys.allocs_per_load"] = allocsPerOp(5_000, func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(r.load(0, 0x1000, private(0, 0x1000)))
			}
		})
	}
	{
		r := newMemRig(1, memsys.Mode{})
		r.load(0, 0x1000, private(0, 0x1000))
		m["memsys.ns_per_l1_hit"] = nsPerOp(budget, func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(r.load(0, 0x1000, private(0, 0x1000)))
			}
		})
	}
	// L2 fill: a 1 MiB footprint streams through the 64 KiB L1D but stays
	// in the 2 MiB L2, so after one pass every load misses L1 and hits L2.
	{
		r := newMemRig(1, memsys.Mode{})
		const lines = 1 << 20 / mem.LineBytes
		at := func(i int) (mem.VAddr, mem.Addr) {
			va := mem.VAddr((i % lines) * mem.LineBytes)
			return va, private(0, va)
		}
		for i := 0; i < lines; i++ {
			r.load(0, mem.VAddr(i*mem.LineBytes), private(0, mem.VAddr(i*mem.LineBytes)))
		}
		next := 0
		m["memsys.ns_per_l2_fill"] = nsPerOp(budget, func(n int) {
			for i := 0; i < n; i++ {
				va, pa := at(next)
				sink += uint64(r.load(0, va, pa))
				next++
			}
		})
	}
	// DRAM fill: a 16 MiB footprint defeats the L2 as well.
	{
		r := newMemRig(1, memsys.Mode{})
		const lines = 16 << 20 / mem.LineBytes
		next := 0
		m["memsys.ns_per_dram_fill"] = nsPerOp(budget, func(n int) {
			for i := 0; i < n; i++ {
				va := mem.VAddr((next % lines) * mem.LineBytes)
				sink += uint64(r.load(0, va, private(0, va)))
				next++
			}
		})
	}
	// Commit-time work for a load whose line sits uncommitted in the
	// filter cache: mark, write through, upgrade, notify the prefetcher.
	{
		r := newMemRig(1, muontrapMode)
		const lines = 256 << 10 / mem.LineBytes
		next := 0
		m["memsys.ns_per_commit_load"] = nsPerOp(budget, func(n int) {
			for i := 0; i < n; i++ {
				va := mem.VAddr((next % lines) * mem.LineBytes)
				pa := private(0, va)
				r.load(0, va, pa)
				r.h.Port(0).CommitLoad(0x400100, va, pa)
				for r.sched.Pending() > 0 {
					r.sched.Tick()
				}
				next++
			}
		}) // load + commit; the load part is ns_per_l2_fill or ns_per_dram_fill
	}
	// Page-table walk: 4096 mapped pages against a 64-entry TLB, touched
	// round-robin, so every translation misses the TLB and walks.
	{
		r := newMemRig(1, memsys.Mode{})
		next, walks := 0, 0
		m["memsys.ns_per_ptwalk"] = nsPerOp(budget, func(n int) {
			for i := 0; i < n; i++ {
				done := false
				r.h.Port(0).Translate(mem.VAddr((next%4096)<<mem.PageShift), false, true, func(_ mem.Addr, walked, _ bool) {
					done = true
					if walked {
						walks++
					}
				})
				r.wait(&done, 5000)
				next++
			}
		})
		sink += uint64(walks)
	}
	// SE upgrade and domain flush, with a second port sharing the line:
	// both cores load a line of the shared window speculatively (each
	// filter cache takes it SE, the directory knows neither), then core 0
	// commits it, which upgrades SE->E and broadcast-invalidates core 1's
	// filter copy. The 1 MiB window outlasts the L1D, so a revisited line
	// has left the directory and the round repeats from the same state.
	{
		r := newMemRig(2, muontrapMode)
		const lines = 1 << 20 / mem.LineBytes
		next := 0
		m["memsys.ns_per_se_upgrade"] = nsPerOp(budget, func(n int) {
			for i := 0; i < n; i++ {
				a := rigWindow + uint64((next%lines)*mem.LineBytes)
				r.load(1, mem.VAddr(a), mem.Addr(a))
				r.load(0, mem.VAddr(a), mem.Addr(a))
				r.h.Port(0).CommitLoad(0x400100, mem.VAddr(a), mem.Addr(a))
				for r.sched.Pending() > 0 {
					r.sched.Tick()
				}
				next++
			}
		}) // two fills, the commit and the broadcast
		m["memsys.ns_per_flush_domain"] = nsPerOp(budget, func(n int) {
			for i := 0; i < n; i++ {
				for l := 0; l < 8; l++ {
					a := rigWindow + uint64(l*mem.LineBytes)
					r.load(0, mem.VAddr(a), mem.Addr(a))
				}
				r.h.Port(0).FlushDomain()
			}
		}) // eight filter fills and the flash invalidate that drops them
	}
}

// aluLoop is a tight cached ALU/branch loop: once warm, every cycle
// exercises dispatch, issue, execute and commit without leaving the core.
func aluLoop() *isa.Program {
	b := isa.NewBuilder("alu")
	b.Li(isa.X(5), 0)
	b.Li(isa.X(6), 1)
	b.Li(isa.X(7), 1<<60)
	b.Label("loop")
	b.Add(isa.X(5), isa.X(5), isa.X(6))
	b.Xor(isa.X(8), isa.X(5), isa.X(6))
	b.Addi(isa.X(6), isa.X(6), 1)
	b.Bge(isa.X(7), isa.X(6), "loop")
	b.Halt()
	return b.MustBuild()
}

// branchyLoop adds a data-dependent branch on a xorshift stream, so the
// predictor is wrong about half the time and squashes are constant.
func branchyLoop() *isa.Program {
	b := isa.NewBuilder("branchy")
	b.Li(isa.X(5), 0x9E3779B97F4A7C15)
	b.Li(isa.X(6), 0)
	b.Li(isa.X(7), 1<<60)
	b.Li(isa.X(9), 1)
	b.Label("loop")
	b.Shli(isa.X(8), isa.X(5), 13)
	b.Xor(isa.X(5), isa.X(5), isa.X(8))
	b.Shri(isa.X(8), isa.X(5), 7)
	b.Xor(isa.X(5), isa.X(5), isa.X(8))
	b.Andi(isa.X(10), isa.X(5), 1)
	b.Beq(isa.X(10), isa.X(9), "skip")
	b.Addi(isa.X(11), isa.X(11), 3)
	b.Label("skip")
	b.Addi(isa.X(6), isa.X(6), 1)
	b.Bge(isa.X(7), isa.X(6), "loop")
	b.Halt()
	return b.MustBuild()
}

// warmCore builds a one-core machine running prog and steps it until
// caches, predictor, pools and event-queue arrays are warm.
func warmCore(prog *isa.Program, defense cpu.Defense, mode memsys.Mode) *sim.System {
	cfg := sim.DefaultConfig(1)
	cfg.CPU.Defense = defense
	cfg.Mem.Mode = mode
	s := sim.New(cfg)
	s.RunOn(0, s.NewProcess(prog), 0)
	s.Step(20_000)
	return s
}

// cpuRungs measures the pipeline per committed instruction via sim.Step.
func cpuRungs(budget time.Duration, m map[string]float64) {
	perInst := func(s *sim.System) float64 {
		start, cycles := s.Cores[0].CommittedInsts(), 0
		nsPerCycle := nsPerOp(budget, func(n int) {
			s.Step(n)
			cycles += n
		})
		insts := max(s.Cores[0].CommittedInsts()-start, 1)
		return nsPerCycle * float64(cycles) / float64(insts)
	}
	alu := warmCore(aluLoop(), cpu.DefenseNone, memsys.Mode{})
	m["cpu.ns_per_inst_alu"] = perInst(alu)
	before := alu.Cores[0].CommittedInsts()
	allocsPerCycle := allocsPerOp(20_000, func(n int) { alu.Step(n) })
	m["cpu.allocs_per_inst"] = allocsPerCycle * 40_000 / float64(max(alu.Cores[0].CommittedInsts()-before, 1))
	m["cpu.ns_per_inst_alu_muontrap"] = perInst(warmCore(aluLoop(), cpu.DefenseNone, muontrapMode))
	m["cpu.ns_per_inst_branchy"] = perInst(warmCore(branchyLoop(), cpu.DefenseNone, memsys.Mode{}))
}
