package memsys

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// Property: under arbitrary interleavings of loads, stores, commits,
// flushes and NACK retries from four cores, the coherence invariants hold
// at every step — one owner across the L1Ds and data filter caches, no S
// beside an owner, inclusion, and protocol-shared-only filter caches under
// coherence protection — in the unprotected design, in MuonTrap, and in
// the "fcache only" design, whose filter caches take lines Exclusive.
func TestCoherencePropertyRandomTraffic(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode Mode
	}{{"insecure", insecure}, {"muontrap", muontrap}, {"fcache", fcache}} {
		t.Run(tc.name, func(t *testing.T) { coherenceUnderRandomTraffic(t, tc.mode) })
	}
}

func coherenceUnderRandomTraffic(t *testing.T, mode Mode) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(4, mode)
		// A small set of contended lines in the shared window.
		lines := make([]mem.Addr, 6)
		for i := range lines {
			lines[i] = mem.Addr(0x2000_0000 + i*64)
		}
		pending := 0
		for op := 0; op < 120; op++ {
			c := rng.Intn(4)
			a := lines[rng.Intn(len(lines))]
			va := mem.VAddr(a)
			switch rng.Intn(5) {
			case 0, 1:
				pending++
				r.h.Port(c).Load(0x400100, va, a, true, func(res AccessResult) {
					pending--
					if !res.NACK && mode.FilterProtect {
						r.h.Port(c).CommitLoad(0x400100, va, a)
					}
				})
			case 2:
				pending++
				r.h.Port(c).StoreDrain(0x400200, va, a, func(AccessResult) { pending-- })
			case 3:
				r.h.Port(c).FlushDomain()
			case 4:
				pending++
				r.h.Port(c).Ifetch(va, a, func(AccessResult) { pending-- })
			}
			for k := 0; k < rng.Intn(40); k++ {
				r.sched.Tick()
			}
			if msg := r.h.CheckInvariants(); msg != "" {
				t.Logf("seed %d op %d: %s", seed, op, msg)
				return false
			}
		}
		// Drain everything and re-check.
		for k := 0; k < 5000 && pending > 0; k++ {
			r.sched.Tick()
		}
		return r.h.CheckInvariants() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: FlushDomain always empties both filter caches of that core,
// regardless of prior traffic.
func TestFlushDomainCompleteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(2, muontrap)
		for i := 0; i < 30; i++ {
			a := mem.Addr(0x2000_0000 + rng.Intn(64)*64)
			done := false
			r.h.Port(0).Load(0x400100, mem.VAddr(a), a, true, func(AccessResult) { done = true })
			for k := 0; k < 3000 && !done; k++ {
				r.sched.Tick()
			}
		}
		p := r.h.Port(0)
		p.FlushDomain()
		return p.FilterD().CountValid() == 0 && p.FilterI().CountValid() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Edge case: accesses straddling nothing still work at the very first and
// last lines of a page, and MSHR-full retry paths terminate.
func TestMSHRPressureTerminates(t *testing.T) {
	r := newRig(1, muontrap)
	done := 0
	const n = 24 // far more concurrent lines than the 4 MSHRs
	for i := 0; i < n; i++ {
		a := mem.Addr(0x100000 + i*4096)
		r.h.Port(0).Load(0x400100, mem.VAddr(uint64(0x1000+i*4096)), a, true,
			func(AccessResult) { done++ })
	}
	for k := 0; k < 100000 && done < n; k++ {
		r.sched.Tick()
	}
	if done != n {
		t.Fatalf("only %d/%d loads completed under MSHR pressure", done, n)
	}
}

// Edge case: a NACKed access retried non-speculatively completes even
// while the remote owner keeps writing.
func TestNACKRetryUnderContention(t *testing.T) {
	r := newRig(2, muontrap)
	line := mem.Addr(0x2000_0000)
	va := mem.VAddr(line)
	// Owner (core 1) takes the line M.
	st := false
	r.h.Port(1).StoreDrain(0x400200, va, line, func(AccessResult) { st = true })
	for k := 0; k < 5000 && !st; k++ {
		r.sched.Tick()
	}
	// Core 0: speculative load NACKs, then the retry succeeds.
	var res AccessResult
	got := false
	r.h.Port(0).Load(0x400100, va, line, true, func(ar AccessResult) { res, got = ar, true })
	for k := 0; k < 5000 && !got; k++ {
		r.sched.Tick()
	}
	if !res.NACK {
		t.Fatal("expected NACK")
	}
	got = false
	r.h.Port(0).Load(0x400100, va, line, false, func(ar AccessResult) { res, got = ar, true })
	for k := 0; k < 5000 && !got; k++ {
		r.sched.Tick()
	}
	if res.NACK {
		t.Fatal("non-speculative retry must succeed")
	}
	if msg := r.h.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}
