package service

import "testing"

// White-box coverage for the SSE frame ring: bounded retention,
// cursor-relative reads, and id continuity across clears.
func TestEventRingRetentionAndCursor(t *testing.T) {
	r := newEventRing(4)
	if got := r.since(0); got != nil {
		t.Fatalf("empty ring since(0) = %v, want nil", got)
	}
	for id := uint64(1); id <= 6; id++ {
		r.append(streamEvent{id: id, name: "progress"})
	}
	// Capacity 4, six appended: 1 and 2 evicted.
	ids := func(evs []streamEvent) []uint64 {
		out := make([]uint64, len(evs))
		for i, ev := range evs {
			out[i] = ev.id
		}
		return out
	}
	if got := ids(r.since(0)); len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Fatalf("since(0) after overflow = %v, want [3 4 5 6]", got)
	}
	// A cursor inside the retained window resumes exactly after itself.
	if got := ids(r.since(4)); len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("since(4) = %v, want [5 6]", got)
	}
	// A cursor at or past the newest frame yields nothing.
	if got := r.since(6); got != nil {
		t.Fatalf("since(6) = %v, want nil", got)
	}
	if got := r.since(99); got != nil {
		t.Fatalf("since(99) = %v, want nil", got)
	}
	// clear drops frames but never rewinds ids: frames appended after a
	// clear (a preempted job's resumed attempt) stay distinguishable
	// from the cleared attempt's for Last-Event-ID resumption.
	r.clear()
	if got := r.since(0); got != nil {
		t.Fatalf("cleared ring since(0) = %v, want nil", got)
	}
	r.append(streamEvent{id: 7, name: "progress"})
	if got := ids(r.since(6)); len(got) != 1 || got[0] != 7 {
		t.Fatalf("since(6) after clear+append = %v, want [7]", got)
	}
}

// The daemon's capacity must hold the paper's full 33×6 evaluation
// matrix, so a subscriber to a complete Figure 3–9 sweep never loses a
// frame to eviction.
func TestEventRingDefaultCapacityHoldsFullMatrix(t *testing.T) {
	r := newEventRing(streamHistory)
	if len(r.buf) < 33*6 {
		t.Fatalf("default ring capacity %d cannot hold the 33×6 matrix", len(r.buf))
	}
}
