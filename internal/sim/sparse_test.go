package sim_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/figures"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// heldEntries counts the table entries a machine holds — valid cache
// lines (filter caches' among them) and translations, trained prefetcher
// slots, non-zero BTB and local-history entries: the state a checkpoint's
// size must be proportional to.
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

// withoutFormat re-lays snap as a format-9 image: no "format" section,
// the format word 9 at the head of the "machine" section.
func withoutFormat(t *testing.T, snap *checkpoint.Snapshot) *checkpoint.Snapshot {
	enc := snap.Encode()
	spans := sectionSpans(t, enc)
	old := checkpoint.New()
	for _, name := range snap.Names() {
		payload := enc[spans[name][0]:spans[name][1]]
		switch name {
		case "format":
			continue
		case "machine":
			payload = binary.LittleEndian.AppendUint32([]byte(nil), 9)
			payload = append(payload, enc[spans[name][0]:spans[name][1]]...)
		}
		old.Put(name, func(s *checkpoint.State) { checkpoint.Raw(s, payload) })
	}
	return old
}

// TestRestoreRefusesOlderMachineFormat: an image whose format section
// says any older format, 2 (the every-way encoding) up to the one before
// this build's, and an image laid out as builds before format 10 wrote
// them, with the format word in the "machine" section, are refused with
// the "incompatible snapshot; rebuild it" error before a byte of them
// reaches the machine, never parsed as if they were the current layout.
func TestRestoreRefusesOlderMachineFormat(t *testing.T) {
	snap, err := warmMachine(t, 500).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	olds := map[string]*checkpoint.Snapshot{"format-9 layout": withoutFormat(t, snap)}
	for f := uint32(2); f < sim.MachineFormat; f++ {
		enc := snap.Encode()
		binary.LittleEndian.PutUint32(enc[sectionSpans(t, enc)["format"][0]:], f)
		old, err := checkpoint.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		olds[fmt.Sprintf("format-%d image", f)] = old
	}
	for name, old := range olds {
		twin := warmMachine(t, 0)
		before, err := twin.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range []error{sim.CheckFormat(old), twin.RestoreSnapshot(old)} {
			if err == nil || !strings.Contains(err.Error(), "incompatible snapshot; rebuild it") {
				t.Fatalf("%s: got %v, want the incompatible-snapshot error", name, err)
			}
		}
		after, err := twin.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if before.Hash() != after.Hash() {
			t.Fatalf("a refused %s restore changed the machine", name)
		}
	}
	if err := sim.CheckFormat(snap); err != nil {
		t.Fatalf("current-format image refused: %v", err)
	}
}

// fuzzMachine is one seed machine of FuzzRestoreSnapshot: its encoded
// snapshot, its sections and where they lie in it, and how to assemble a
// twin.
type fuzzMachine struct {
	enc   []byte
	names []string
	spans map[string][2]int
	twin  func() *sim.System
}

// fuzzAim is where a section's first sparse table or map lies: the offset
// of its count, the count's width, the size of one entry with its index
// (a map's entry begins with its key), and the offset of a cache line's
// state inside its entry (0 for a table of another kind). Geometry words
// lie before the count.
type fuzzAim struct{ count, width, entry, state int }

// fuzzAims are the aims of each kind of section, named as a core's section
// is after its "core<i>." prefix. A cache line is its index, two tags, its
// state, committed bit and fill level and its rank; a TLB entry or a
// prefetcher slot its index, three words and a rank or confidence; a
// frame its number, length and page; a footprint line its address. The
// predictor's local-history table follows five geometry words, the
// history, RAS top and mispredict count, the three counter tables and
// the RAS.
func fuzzAims() map[string]fuzzAim {
	bp := bpred.DefaultConfig()
	cache, tlb := fuzzAim{8, 4, 4 + 23, 4 + 16}, fuzzAim{4, 4, 4 + 28, 0}
	return map[string]fuzzAim{
		"l2": cache, "l1d": cache, "l1i": cache, "l0d": cache, "l0i": cache,
		"dtlb": tlb, "itlb": tlb, "fdtlb": tlb, "pf": tlb,
		"phys":         {0, 8, 8 + 8 + mem.PageBytes, 0},
		"safebet.data": {0, 4, 8, 0},
		"safebet.code": {0, 4, 8, 0},
		"bpred":        {20 + 8 + 4 + 8 + bp.LocalEntries + bp.GlobalEntries + bp.ChooserEntries + 8*bp.RASEntries, 4, 4 + 8, 0},
	}
}

// FuzzRestoreSnapshot feeds corrupted section payloads to RestoreSnapshot.
// Since machineFormat 3 a restore is driven by counts and indices read
// from the image — which the fleet's HTTP store accepts from any worker —
// so for every alteration of any section of a real image the restore must
// either fail or leave a machine that can be checkpointed again: never
// panic, never write out of range, never allocate beyond what the
// machine's geometry and the image's size allow. The seeds alter every
// section's first word (a geometry word, where it has one) and a run of
// its bytes, and each table's count, first index and second index, and
// its first cache line's state.
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
			machines = append(machines, fuzzMachine{enc, snap.Names(), sectionSpans(f, enc), twin})
		}
	}
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	aims := fuzzAims()
	for m, fm := range machines {
		for sec, name := range fm.names {
			add := func(off int, patch []byte) { f.Add(uint8(m), uint8(sec), uint32(off), patch) }
			add(0, []byte{}) // unaltered
			add(0, u32(7))   // first word: a geometry word, or the format
			add(300, bytes.Repeat([]byte{0xff}, 64))
			if strings.HasPrefix(name, "core") {
				_, name, _ = strings.Cut(name, ".")
			}
			a, ok := aims[name]
			if !ok {
				continue
			}
			add(a.count, bytes.Repeat([]byte{0xff}, a.width)) // count
			add(a.count, u32(1<<20))                          // count above any geometry
			first := a.count + a.width
			add(first, u32(0x7fffffff)) // first entry's index
			add(first+a.entry, u32(0))  // second index not ascending
			if a.state > 0 {
				add(first+a.state, []byte{0}) // first line saved Invalid
			}
		}
	}
	f.Fuzz(func(t *testing.T, machine, section uint8, off uint32, patch []byte) {
		m := machines[int(machine)%len(machines)]
		span := m.spans[m.names[int(section)%len(m.names)]]
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
