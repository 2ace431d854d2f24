package sim_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/sim"
)

func haltProgram() *isa.Program {
	b := isa.NewBuilder("halt")
	b.Li(isa.X(5), 42)
	b.Halt()
	return b.MustBuild()
}

func TestProcessLoaderMapsTextDataStack(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	b := isa.NewBuilder("loader")
	data := b.AllocInit("d", []byte{1, 2, 3, 4, 5, 6, 7, 8}, 64)
	b.Li(isa.X(5), data)
	b.Load(isa.X(6), isa.X(5), 0)
	b.Halt()
	prog := b.MustBuild()
	p := s.NewProcess(prog)

	// Text mapped.
	if _, ok := p.PT.Translate(isa.TextBase >> mem.PageShift); !ok {
		t.Fatal("text page unmapped")
	}
	// Data mapped and initialised.
	pfn, ok := p.PT.Translate(data >> mem.PageShift)
	if !ok {
		t.Fatal("data page unmapped")
	}
	pa := mem.Addr(pfn<<mem.PageShift | data%mem.PageBytes)
	if got := s.Phys.Read64(pa); got != 0x0807060504030201 {
		t.Fatalf("data init = %#x", got)
	}
	// Stack mapped.
	if _, ok := p.PT.Translate((isa.StackTop - 8) >> mem.PageShift); !ok {
		t.Fatal("stack page unmapped")
	}
}

func TestSharedTextAcrossProcesses(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	prog := haltProgram()
	p1 := s.NewProcess(prog)
	p2 := s.NewProcess(prog)
	f1, _ := p1.PT.Translate(isa.TextBase >> mem.PageShift)
	f2, _ := p2.PT.Translate(isa.TextBase >> mem.PageShift)
	if f1 != f2 {
		t.Fatal("same binary should share text frames")
	}
	// Different programs get distinct text.
	p3 := s.NewProcess(haltProgram())
	f3, _ := p3.PT.Translate(isa.TextBase >> mem.PageShift)
	if f3 == f1 {
		t.Fatal("different binaries must not share text")
	}
}

func TestSharedSegmentsShareFrames(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	b := isa.NewBuilder("sh")
	shared := b.Segment("sh", 0x3000_0000, []byte{9}, true)
	b.Halt()
	prog := b.MustBuild()
	p1 := s.NewProcess(prog)
	p2 := s.NewProcess(prog)
	f1, _ := p1.PT.Translate(shared >> mem.PageShift)
	f2, _ := p2.PT.Translate(shared >> mem.PageShift)
	if f1 != f2 {
		t.Fatal("shared segment should map the same frames")
	}
}

func TestRunUntilHaltAndResult(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	p := s.NewProcess(haltProgram())
	s.RunOn(0, p, 0)
	res, err := s.RunUntilHalt(100000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 || res.Cycles == 0 {
		t.Fatalf("result empty: %+v", res)
	}
	if s.Cores[0].Reg(isa.X(5)) != 42 {
		t.Fatal("program did not execute")
	}
	if res.IPC() <= 0 {
		t.Fatal("bad IPC")
	}
}

func TestRunUntilHaltTimesOut(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	b := isa.NewBuilder("spin")
	b.Label("forever")
	b.Jmp("forever")
	p := s.NewProcess(b.MustBuild())
	s.RunOn(0, p, 0)
	if _, err := s.RunUntilHalt(2000); err == nil {
		t.Fatal("expected timeout error")
	}
}

func TestContextSwitchPreservesArchState(t *testing.T) {
	// Two processes of the same counting program, interleaved on one core:
	// both must make progress and keep independent register state.
	b := isa.NewBuilder("count")
	cell := b.Alloc("cell", 8, 64)
	b.Li(isa.X(9), cell)
	b.Label("loop")
	b.Addi(isa.X(5), isa.X(5), 1)
	b.Store(isa.X(5), isa.X(9), 0)
	b.Jmp("loop")
	prog := b.MustBuild()

	cfg := sim.DefaultConfig(1)
	cfg.Mem.Mode = memsys.Mode{L0Data: true, L0Inst: true, FilterProtect: true,
		CoherenceProtect: true, CommitPrefetch: true, FilterTLB: true}
	s := sim.New(cfg)
	p1 := s.NewProcess(prog)
	p2 := s.NewProcess(prog)

	s.RunOn(0, p1, 0)
	s.Step(3000)
	s.RunOn(0, p2, 0)
	s.Step(3000)
	s.RunOn(0, p1, 0)
	s.Step(3000)

	read := func(p *sim.Process) uint64 {
		pfn, _ := p.PT.Translate(cell >> mem.PageShift)
		return s.Phys.Read64(mem.Addr(pfn<<mem.PageShift | cell%mem.PageBytes))
	}
	c1, c2 := read(p1), read(p2)
	if c1 == 0 || c2 == 0 {
		t.Fatalf("both processes should progress: %d %d", c1, c2)
	}
	if c1 <= c2 {
		t.Fatalf("p1 ran two quanta and must lead: p1=%d p2=%d", c1, c2)
	}
	if s.ContextSwitches < 2 {
		t.Fatalf("context switches = %d", s.ContextSwitches)
	}
	// MuonTrap: every switch flushed the filter caches.
	if n := s.Hier.Port(0).Stat(memsys.PCDomainFlushes); n < 2 {
		t.Fatalf("domain flushes = %d, want >= 2", n)
	}
}

func TestTimerTickFlushesDomain(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.Mem.Mode = memsys.Mode{L0Data: true, FilterProtect: true, FilterTLB: true}
	cfg.TimerInterval = 1000
	cfg.TimerCost = 100
	s := sim.New(cfg)
	b := isa.NewBuilder("spin2")
	buf := b.Alloc("buf", 64, 64)
	b.Li(isa.X(9), buf)
	b.Label("loop")
	b.Load(isa.X(5), isa.X(9), 0)
	b.Jmp("loop")
	p := s.NewProcess(b.MustBuild())
	s.RunOn(0, p, 0)
	s.Step(10_000)
	if s.TimerTicks < 5 {
		t.Fatalf("timer ticks = %d, want several", s.TimerTicks)
	}
	if n := s.Hier.Port(0).Stat(memsys.PCDomainFlushes); n < 5 {
		t.Fatalf("timer should flush the filter: %d", n)
	}
}

func TestBTBIsolationFlushesOnSwitch(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.BTBIsolation = true
	s := sim.New(cfg)
	prog := haltProgram()
	p1 := s.NewProcess(prog)
	p2 := s.NewProcess(prog)
	s.RunOn(0, p1, 0)
	// Train something into the BTB.
	pr := s.Cores[0].Predictor().PredictJump(0x400100)
	s.Cores[0].Predictor().Update(0x400100, pr, true, 0x400800, false)
	s.RunOn(0, p2, 0)
	if got := s.Cores[0].Predictor().PredictJump(0x400100); got.BTBHit {
		t.Fatal("BTB should be flushed on domain switch with BTBIsolation")
	}
}

func TestMultiThreadSharedAddressSpace(t *testing.T) {
	// Two threads of one process increment disjoint cells; both visible in
	// the same address space.
	b := isa.NewBuilder("mt")
	cells := b.Alloc("cells", 128, 64)
	b.Li(isa.X(9), cells)
	b.Shli(isa.X(11), isa.X(10), 3) // tid*8
	b.Add(isa.X(9), isa.X(9), isa.X(11))
	b.Li(isa.X(5), 0)
	b.Label("loop")
	b.Addi(isa.X(5), isa.X(5), 1)
	b.Store(isa.X(5), isa.X(9), 0)
	b.Li(isa.X(6), 50)
	b.Blt(isa.X(5), isa.X(6), "loop")
	b.Halt()
	prog := b.MustBuild()

	s := sim.New(sim.DefaultConfig(2))
	p := s.NewProcess(prog)
	s.AddThread(p, 1, prog.Entry)
	s.RunOn(0, p, 0)
	s.RunOn(1, p, 1)
	if _, err := s.RunUntilHalt(1_000_000); err != nil {
		t.Fatal(err)
	}
	pfn, _ := p.PT.Translate(cells >> mem.PageShift)
	base := mem.Addr(pfn<<mem.PageShift | cells%mem.PageBytes)
	if s.Phys.Read64(base) != 50 || s.Phys.Read64(base+8) != 50 {
		t.Fatalf("thread cells = %d, %d, want 50, 50",
			s.Phys.Read64(base), s.Phys.Read64(base+8))
	}
}

// TestReleaseEndsTheMachine: a released machine's results stay valid (they
// share nothing with its tables), running it further panics at the first
// table access instead of simulating on tables another machine may now
// hold, and releasing it again is a no-op.
func TestReleaseEndsTheMachine(t *testing.T) {
	build := func() *sim.System {
		s := sim.New(sim.DefaultConfig(1))
		p := s.NewProcess(haltProgram())
		s.RunOn(0, p, 0)
		return s
	}
	s := build()
	res, err := s.RunUntilHalt(100_000)
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
	s.Release()
	if res.Committed == 0 || res.Counters["core0.committed"] != res.Committed {
		t.Fatalf("result damaged by Release: %+v", res)
	}

	running := build()
	running.Step(10)
	running.Release()
	defer func() {
		if recover() == nil {
			t.Error("stepping a released machine did not panic")
		}
	}()
	running.Step(1000)
}
