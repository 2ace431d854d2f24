package cpu

import (
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/isa"
	"repro/internal/mem"
)

// newQuietCore builds a bare core with no memory port — enough to poke
// the quiesce conditions directly.
func newQuietCore() *Core {
	return NewCore(0, DefaultConfig(), event.NewScheduler(), nil, mem.NewPhysical())
}

// TestQuiescedNamesEachCondition drives every non-quiesced condition
// individually and asserts the error names the specific offending
// structure (with its occupancy) — the contract System.Drain relies on to
// produce actionable "refused to drain" reports.
func TestQuiescedNamesEachCondition(t *testing.T) {
	nop := isa.NewStaticInst(isa.Inst{Op: isa.OpAddi})
	cases := []struct {
		name    string
		mutate  func(c *Core)
		wantSub string
	}{
		{
			name: "rob",
			mutate: func(c *Core) {
				c.rob.push(c.allocInst())
			},
			wantSub: "1 instructions in the ROB",
		},
		{
			name: "issue queue",
			mutate: func(c *Core) {
				c.enterIQ(c.allocInst())
			},
			wantSub: "1 instructions in the issue queue",
		},
		{
			name: "load queue",
			mutate: func(c *Core) {
				c.lq = append(c.lq, c.allocInst())
			},
			wantSub: "1 loads in the load queue",
		},
		{
			name: "store queue",
			mutate: func(c *Core) {
				c.sq = append(c.sq, c.allocInst())
			},
			wantSub: "1 stores in the store queue",
		},
		{
			name: "store buffer",
			mutate: func(c *Core) {
				d := c.allocInst()
				d.si = &nop
				c.storeBuf.push(d)
			},
			wantSub: "1 committed stores in the store buffer",
		},
		{
			name: "drains in flight",
			mutate: func(c *Core) {
				c.drainsInFlight = 2
			},
			wantSub: "2 store drains in flight",
		},
		{
			name: "pending ifetch",
			mutate: func(c *Core) {
				c.fetchLinePend = true
				c.fetchPendLine = 0x1040
			},
			wantSub: "in-flight instruction fetch for line 0x1040",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newQuietCore()
			if err := c.Quiesced(); err != nil {
				t.Fatalf("fresh core not quiesced: %v", err)
			}
			if !c.Quiet() {
				t.Fatal("fresh core not Quiet")
			}
			tc.mutate(c)
			err := c.Quiesced()
			if err == nil {
				t.Fatal("mutated core reported quiesced")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name the condition %q", err, tc.wantSub)
			}
		})
	}
}

var quietSink bool

// TestQuietOnBusyCoreZeroAlloc: the drain loop polls Quiet every cycle
// while the core still holds something, so that reading of the predicate
// must not allocate. The pending ifetch is the last condition, so every
// earlier one is read on the way.
func TestQuietOnBusyCoreZeroAlloc(t *testing.T) {
	c := newQuietCore()
	c.fetchLinePend = true
	if c.Quiet() {
		t.Fatal("core with a pending ifetch reported Quiet")
	}
	if a := testing.AllocsPerRun(100, func() { quietSink = c.Quiet() }); a != 0 {
		t.Fatalf("Quiet on a busy core allocates %.1f/op, want 0", a)
	}
}

// TestStopFetchParksFrontEnd: with fetch stopped, ticking the core must
// never dispatch new instructions, and ResumeFetch must re-enable it.
func TestStopFetchParksFrontEnd(t *testing.T) {
	b := isa.NewBuilder("park")
	b.Li(isa.X(5), 7)
	b.Addi(isa.X(5), isa.X(5), 1)
	b.Halt()
	prog := b.MustBuild()

	sched := event.NewScheduler()
	phys := mem.NewPhysical()
	c := NewCore(0, DefaultConfig(), sched, nil, phys)
	c.SetProgram(prog)
	c.StopFetch()
	for i := 0; i < 100; i++ {
		c.Tick()
		sched.Tick()
	}
	if c.Count(Fetched) != 0 {
		t.Fatalf("parked core fetched %d instructions", c.Count(Fetched))
	}
	if err := c.Quiesced(); err != nil {
		t.Fatalf("parked core not quiesced: %v", err)
	}
	c.ResumeFetch()
	if c.fetchDrain {
		t.Fatal("ResumeFetch did not clear the drain flag")
	}
	// Restart behavior through a real memory system is covered by the
	// sim-level drain tests; a portless core cannot fetch.
}
