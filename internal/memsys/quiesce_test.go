package memsys

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/event"
	"repro/internal/mem"
)

// newQuietHier builds a 1-core hierarchy in the full MuonTrap mode (so
// the filter structures exist and their quiesce arms are reachable).
func newQuietHier() *Hierarchy {
	cfg := DefaultConfig(1)
	cfg.Mode = Mode{
		L0Data: true, L0Inst: true,
		FilterProtect: true, CoherenceProtect: true,
		CommitPrefetch: true, FilterTLB: true,
	}
	return New(event.NewScheduler(), mem.NewPhysical(), cfg)
}

// TestHierarchyQuiescedNamesEachCondition drives every non-quiesced
// condition of the memory system individually and asserts the error
// names the offending structure with its occupancy.
func TestHierarchyQuiescedNamesEachCondition(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(h *Hierarchy)
		wantSub string
	}{
		{
			name:    "l2 mshrs",
			mutate:  func(h *Hierarchy) { h.l2MSHRs.Allocate(0x40, cache.NoWaiter) },
			wantSub: "1 live L2 MSHRs",
		},
		{
			name:    "l1d mshrs",
			mutate:  func(h *Hierarchy) { h.ports[0].l1dMSHRs.Allocate(0x40, cache.NoWaiter) },
			wantSub: "1 live L1D MSHRs",
		},
		{
			name:    "l1i mshrs",
			mutate:  func(h *Hierarchy) { h.ports[0].l1iMSHRs.Allocate(0x40, cache.NoWaiter) },
			wantSub: "1 live L1I MSHRs",
		},
		{
			name:    "l0d mshrs",
			mutate:  func(h *Hierarchy) { h.ports[0].l0d.MSHRs.Allocate(0x40, cache.NoWaiter) },
			wantSub: "1 live L0D MSHRs",
		},
		{
			name:    "l0i mshrs",
			mutate:  func(h *Hierarchy) { h.ports[0].l0i.MSHRs.Allocate(0x40, cache.NoWaiter) },
			wantSub: "1 live L0I MSHRs",
		},
		{
			name: "parked access callback",
			mutate: func(h *Hierarchy) {
				h.ports[0].parked.put(compOf(func(AccessResult) {}))
			},
			wantSub: "1 parked completions",
		},
		{
			name: "parked page-walk read",
			mutate: func(h *Hierarchy) {
				h.ports[0].parked.put(compOfWalk(0))
			},
			wantSub: "1 parked completions",
		},
		{
			name: "parked mshr waiter",
			mutate: func(h *Hierarchy) {
				h.ports[0].parked.put(comp{idx: 0, seq: 1})
			},
			wantSub: "1 parked completions",
		},
		{
			name: "parked ifetch waiter",
			mutate: func(h *Hierarchy) {
				h.ports[0].parked.put(comp{idx: fetchIdx})
			},
			wantSub: "1 parked completions",
		},
		{
			name: "in-flight page walk",
			mutate: func(h *Hierarchy) {
				h.ports[0].walks.put(ptwalk{})
			},
			wantSub: "1 in-flight page-table walks",
		},
		{
			name: "parked l1d miss",
			mutate: func(h *Hierarchy) {
				h.ports[0].parkMiss(1, popMissRetry, dmiss{})
			},
			wantSub: "1 parked L1 misses",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newQuietHier()
			if err := h.Quiesced(); err != nil {
				t.Fatalf("fresh hierarchy not quiesced: %v", err)
			}
			if !h.Quiet() {
				t.Fatal("fresh hierarchy not Quiet")
			}
			tc.mutate(h)
			err := h.Quiesced()
			if err == nil {
				t.Fatal("mutated hierarchy reported quiesced")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name the condition %q", err, tc.wantSub)
			}
		})
	}
}

var quietSink bool

// TestQuietOnBusyHierarchyZeroAlloc: the drain loop polls Quiet every
// cycle while the hierarchy still holds something, so that reading of the
// predicate must not allocate. The parked miss is the last condition, so
// every earlier one is read on the way.
func TestQuietOnBusyHierarchyZeroAlloc(t *testing.T) {
	h := newQuietHier()
	h.ports[0].parkMiss(1, popMissRetry, dmiss{})
	if h.Quiet() {
		t.Fatal("hierarchy with a parked miss reported Quiet")
	}
	if a := testing.AllocsPerRun(100, func() { quietSink = h.Quiet() }); a != 0 {
		t.Fatalf("Quiet on a busy hierarchy allocates %.1f/op, want 0", a)
	}
}
