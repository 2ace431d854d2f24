package figures

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/simtest"
)

// olderFormats are the machine formats older builds wrote: 2, every way of
// every table; 3, the counters no code read still saved; 4, the shadows
// of the filter caches' contents still saved; 5, the L2 directory, a
// shadow of the L1s' contents, still saved; 6, structures' statistics,
// LRU stamps and absolute busy-until cycles still saved; 7, the filter
// owner map still saved; 8, the warm-up's shared-level counts still
// saved; 9, one section per owner, with presence flags for the filter
// structures.
var olderFormats = []uint32{2, 3, 4, 5, 6, 7, 8, 9}

// asFormat returns a copy of snap whose format section claims machine
// format f — an image an older build left behind, as far as this binary
// can tell.
func asFormat(t *testing.T, snap *checkpoint.Snapshot, f uint32) *checkpoint.Snapshot {
	t.Helper()
	enc := snap.Encode()
	// magic(8) version(4) count(4), then the first section: name length,
	// "format", payload length, payload — the format word.
	if string(enc[20:26]) != "format" {
		t.Fatalf("first section is %q, want format", enc[20:26])
	}
	binary.LittleEndian.PutUint32(enc[34:], f)
	old, err := checkpoint.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	return old
}

// relinkAsFormat stores the format-f forgery of the warm snapshot a ref
// resolves to and points the ref at it.
func relinkAsFormat(t *testing.T, st *checkpoint.Store, key string, f uint32) {
	t.Helper()
	hash, ok := st.Resolve(key)
	if !ok {
		t.Fatalf("no ref for %q", key)
	}
	snap, err := st.Load(hash)
	if err != nil {
		t.Fatal(err)
	}
	oldHash, err := st.Put(asFormat(t, snap, f))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Link(key, oldHash); err != nil {
		t.Fatal(err)
	}
}

// TestStaleFormatWarmSnapshotIsRebuilt: a warm snapshot in an older
// machine format is not an error and never reaches a machine — the warm-up
// is re-simulated, the ref re-linked, and the forked run is the run a
// clean cache produces.
func TestStaleFormatWarmSnapshotIsRebuilt(t *testing.T) {
	for _, f := range olderFormats {
		t.Run(fmt.Sprintf("format%d", f), func(t *testing.T) { staleWarmSnapshotIsRebuilt(t, f) })
	}
}

func staleWarmSnapshotIsRebuilt(t *testing.T, f uint32) {
	defer ResetRunCache()
	ResetRunCache()
	spec := simtest.MustSpec(t, "hmmer")
	opt := tinyOptions()
	opt.WarmupInsts = 1000

	clean := opt
	clean.CacheDir = t.TempDir()
	want, err := RunOne(context.Background(), spec, defense.MuonTrap(), clean)
	if err != nil {
		t.Fatal(err)
	}

	ResetRunCache()
	opt.CacheDir = t.TempDir()
	_, goodHash, err := warmSnapshot(Job{Spec: spec, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.NewStore(filepath.Join(opt.CacheDir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	relinkAsFormat(t, st, warmInputKey(spec, opt), f)

	ResetRunCache() // a later process
	got, err := RunOne(context.Background(), spec, defense.MuonTrap(), opt)
	if err != nil {
		t.Fatalf("run over a stale-format warm snapshot failed: %v", err)
	}
	simtest.ResultsEqual(t, "stale warm snapshot", want, got)
	if h, ok := st.Resolve(warmInputKey(spec, opt)); !ok || h != goodHash {
		t.Fatalf("warm ref resolves to %q after the rebuild, want %q", h, goodHash)
	}
}

// TestStaleFormatMidRunCheckpointStartsCold: a mid-run checkpoint in an
// older machine format is reported and the run starts from cold — the
// same result as an uninterrupted run, never a failed cell.
func TestStaleFormatMidRunCheckpointStartsCold(t *testing.T) {
	for _, f := range olderFormats {
		t.Run(fmt.Sprintf("format%d", f), func(t *testing.T) { staleMidRunCheckpointStartsCold(t, f) })
	}
}

func staleMidRunCheckpointStartsCold(t *testing.T, f uint32) {
	defer ResetRunCache()
	ResetRunCache()
	spec := simtest.MustSpec(t, "hmmer")
	sch := defense.MuonTrap()
	opt := tinyOptions()
	opt.Scale = 0.1
	opt.CheckpointEvery = 2000

	full := opt
	full.CacheDir = t.TempDir()
	want, err := RunOne(context.Background(), spec, sch, full)
	if err != nil {
		t.Fatal(err)
	}

	ResetRunCache()
	opt.CacheDir = t.TempDir()
	crash := opt
	crash.ckptSpy = func(n int) error {
		if n == 2 {
			return errSimulatedCrash
		}
		return nil
	}
	if _, err := RunOne(context.Background(), spec, sch, crash); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("crash run: got %v, want simulated crash", err)
	}
	st, err := checkpoint.NewStore(filepath.Join(opt.CacheDir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the chain's newest checkpoint with its format-f forgery.
	mkey := midrunKey(runKey{workload: spec.Name, scheme: sch.Name, scale: opt.Scale,
		maxCycles: opt.MaxCycles, every: opt.CheckpointEvery})
	snap, g, err := st.Latest(mkey)
	if snap == nil {
		t.Fatalf("no mid-run chain under %q (%v)", mkey, err)
	}
	if err := st.Save(mkey, g, asFormat(t, snap, f)); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	oldWarnf := warnf
	warnf = func(format string, args ...any) { warnings = append(warnings, fmt.Sprintf(format, args...)) }
	defer func() { warnf = oldWarnf }()

	ResetRunCache()
	opt.Resume = true
	got, err := RunOne(context.Background(), spec, sch, opt)
	if err != nil {
		t.Fatalf("resume over a stale-format checkpoint failed: %v", err)
	}
	simtest.ResultsEqual(t, "stale mid-run checkpoint", want, got)
	if len(warnings) != 1 || !strings.Contains(warnings[0], "restarting from cold") ||
		!strings.Contains(warnings[0], "incompatible snapshot; rebuild it") {
		t.Fatalf("want one cold-restart warning naming the format, got %q", warnings)
	}
}
