package sim_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/figures"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// heldEntries counts the table entries a machine holds — valid cache
// lines and translations, directory and filter-tracking entries, trained
// prefetcher slots, non-zero BTB and local-history entries: the state a
// checkpoint's size must be proportional to.
func heldEntries(s *sim.System) int {
	n := s.Hier.Occupancy()
	for _, c := range s.Cores {
		hist, btb := c.Predictor().Occupancy()
		n += hist + btb
	}
	return n
}

// physBytes is the size of the machine's "phys" section, which grows by
// the page, not by the table entry.
func physBytes(s *sim.System) int {
	snap := checkpoint.New()
	snap.Put("phys", s.Phys.Checkpoint)
	return snap.Len("phys")
}

// TestCheckpointSizeTracksOccupancy pins what a checkpoint pays for: the
// state the machine holds, not the geometry it was built with. A
// just-assembled 4-core machine (2 MiB L2, four 64 KiB BTBs) encodes to a
// few tens of KB, and running it grows the image by at most the largest
// per-entry encoding (a TLB entry's or a prefetcher slot's 32 bytes) for
// every entry the run added — so the image of canneal under MuonTrap stays
// under 128 KB after 5 000 cycles and under 256 KB after 100 000, where
// the every-way encoding wrote 1.47 MB from the first cycle on.
func TestCheckpointSizeTracksOccupancy(t *testing.T) {
	const perEntry = 32
	size := func(s *sim.System) int {
		snap, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return snap.Size()
	}
	fresh := drainedCanneal(t, 0)
	base, baseHeld, basePhys := size(fresh), heldEntries(fresh), physBytes(fresh)
	t.Logf("just assembled: %d bytes, %d entries held", base, baseHeld)
	if base > 64<<10 {
		t.Errorf("a just-assembled 4-core machine encodes to %d bytes, want <= 64 KiB", base)
	}
	for _, tc := range []struct{ cycles, limit int }{{5_000, 128 << 10}, {100_000, 256 << 10}} {
		s := drainedCanneal(t, tc.cycles)
		got, held := size(s), heldEntries(s)
		t.Logf("after %d cycles: %d bytes, %d entries held", tc.cycles, got, held)
		if got > tc.limit {
			t.Errorf("after %d cycles the image is %d bytes, want <= %d", tc.cycles, got, tc.limit)
		}
		grew := (got - physBytes(s)) - (base - basePhys)
		if added := held - baseHeld; grew > perEntry*added {
			t.Errorf("after %d cycles the image (without phys) grew %d bytes for %d entries added: more than %d bytes per entry",
				tc.cycles, grew, added, perEntry)
		}
	}
}

// sectionSpans locates every section's payload inside an encoded
// snapshot (magic, version, count, then name/payload pairs), so a test
// can alter payload bytes in place and re-decode the container.
func sectionSpans(tb testing.TB, enc []byte) map[string][2]int {
	tb.Helper()
	spans := map[string][2]int{}
	off := 16
	for n := binary.LittleEndian.Uint32(enc[12:]); n > 0; n-- {
		nameLen := int(binary.LittleEndian.Uint32(enc[off:]))
		name := string(enc[off+4 : off+4+nameLen])
		off += 4 + nameLen
		payLen := int(binary.LittleEndian.Uint64(enc[off:]))
		off += 8
		spans[name] = [2]int{off, off + payLen}
		off += payLen
	}
	if off != len(enc) {
		tb.Fatalf("container walk ended at %d of %d bytes", off, len(enc))
	}
	return spans
}

// TestRestoreRefusesOlderMachineFormat: an image whose machine section
// says any older format, 2 (the every-way encoding) up to the one before
// this build's, is refused with the "incompatible snapshot; rebuild it"
// error before a byte of it reaches the machine, never parsed as if it
// were the current layout.
func TestRestoreRefusesOlderMachineFormat(t *testing.T) {
	snap, err := warmMachine(t, 500).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for f := uint32(2); f < sim.MachineFormat; f++ {
		enc := snap.Encode()
		binary.LittleEndian.PutUint32(enc[sectionSpans(t, enc)["machine"][0]:], f)
		old, err := checkpoint.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		twin := warmMachine(t, 0)
		before, err := twin.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range []error{sim.CheckFormat(old), twin.RestoreSnapshot(old)} {
			if err == nil || !strings.Contains(err.Error(), "incompatible snapshot; rebuild it") {
				t.Fatalf("format-%d image: got %v, want the incompatible-snapshot error", f, err)
			}
		}
		after, err := twin.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if before.Hash() != after.Hash() {
			t.Fatalf("a refused format-%d restore changed the machine", f)
		}
	}
	if err := sim.CheckFormat(snap); err != nil {
		t.Fatalf("current-format image refused: %v", err)
	}
}

// fuzzMachine is one seed machine of FuzzRestoreSnapshot: its encoded
// snapshot, where the sections lie in it, and how to assemble a twin.
type fuzzMachine struct {
	enc   []byte
	spans map[string][2]int
	twin  func() *sim.System
}

// fuzzedSections are the sections whose payloads the fuzzer alters: the
// ones whose Restore reads counts and indices that address arrays.
var fuzzedSections = []string{"hier", "port0", "core0", "phys"}

// FuzzRestoreSnapshot feeds corrupted component payloads to RestoreSnapshot.
// Since machineFormat 3 a restore is driven by counts and indices read
// from the image — which the fleet's HTTP store accepts from any worker —
// so for every alteration of a real image's hier, port0, core0 or phys
// section the restore must either fail or leave a machine that can be
// checkpointed again: never panic, never write out of range, never
// allocate beyond what the machine's geometry and the image's size allow.
func FuzzRestoreSnapshot(f *testing.F) {
	var machines []fuzzMachine
	for _, wl := range []string{"hmmer", "canneal"} { // 1 core, 4 cores
		for _, sch := range []defense.Scheme{defense.Insecure(), defense.MuonTrap()} {
			spec := simtest.MustSpec(f, wl)
			twin := func() *sim.System { return figures.BuildSystem(spec, sch, 0.02) }
			s := twin()
			s.Warmup(500)
			s.Step(3000)
			if err := s.Drain(context.Background()); err != nil {
				f.Fatal(err)
			}
			snap, err := s.Checkpoint()
			if err != nil {
				f.Fatal(err)
			}
			enc := snap.Encode()
			machines = append(machines, fuzzMachine{enc, sectionSpans(f, enc), twin})
		}
	}
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	for m := range machines {
		for sec := range fuzzedSections {
			f.Add(uint8(m), uint8(sec), uint32(0), []byte{})         // unaltered
			f.Add(uint8(m), uint8(sec), uint32(16), u32(0xffffffff)) // first array's count
			f.Add(uint8(m), uint8(sec), uint32(16), u32(1<<20))      // count above any geometry
			f.Add(uint8(m), uint8(sec), uint32(20), u32(0x7fffffff)) // first entry's index
			f.Add(uint8(m), uint8(sec), uint32(20+31), u32(0))       // second index not ascending
			f.Add(uint8(m), uint8(sec), uint32(20+20), []byte{0})    // first line saved Invalid
			f.Add(uint8(m), uint8(sec), uint32(0), u32(7))           // geometry word
			f.Add(uint8(m), uint8(sec), uint32(300), bytes.Repeat([]byte{0xff}, 64))
		}
	}
	f.Fuzz(func(t *testing.T, machine, section uint8, off uint32, patch []byte) {
		m := machines[int(machine)%len(machines)]
		span := m.spans[fuzzedSections[int(section)%len(fuzzedSections)]]
		enc := bytes.Clone(m.enc)
		if n := span[1] - span[0]; n > 0 {
			copy(enc[span[0]+int(off)%n:span[1]], patch)
		}
		snap, err := checkpoint.Decode(enc)
		if err != nil {
			t.Fatalf("container no longer decodes though only a payload changed: %v", err)
		}
		twin := m.twin()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = twin.RestoreSnapshot(snap)
		runtime.ReadMemStats(&after)
		if !simtest.RaceEnabled {
			if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(enc)+1<<20); alloc > limit {
				t.Fatalf("restore allocated %d bytes for a %d-byte image (limit %d)", alloc, len(enc), limit)
			}
		}
		if err != nil {
			return // refused: exactly what a corrupt payload must produce
		}
		if _, err := twin.Checkpoint(); err != nil {
			t.Fatalf("machine restored from an altered image cannot be checkpointed: %v", err)
		}
	})
}
