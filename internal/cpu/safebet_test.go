package cpu

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

// TestLineSetCheckpoint: a footprint saves its lines ascending and loads
// them back into a replaced set, and a line that add would never keep —
// one not line-aligned — fails the load, so a foreign image cannot plant a
// key that has never finds and a later save writes out again.
func TestLineSetCheckpoint(t *testing.T) {
	var s lineSet[uint64]
	for _, a := range []uint64{0x1234, 0x40, 0x9ff} {
		s.add(a)
	}
	snap := checkpoint.New()
	snap.Put("fp", s.checkpoint)
	got := lineSet[uint64]{0x80000: {}}
	if err := snap.Get("fp", got.checkpoint); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !got.has(0x1234) || !got.has(0x40) || !got.has(0x9ff) {
		t.Fatalf("loaded %v", got)
	}

	forged := checkpoint.New()
	forged.Put("fp", func(st *checkpoint.State) {
		n, line := uint32(1), uint64(0x1234)
		st.U32(&n)
		st.U64(&line)
	})
	err := forged.Get("fp", got.checkpoint)
	if err == nil || !strings.Contains(err.Error(), "footprint line 0x1234 is not line-aligned") {
		t.Fatalf("unaligned line: %v", err)
	}
}
