package figures

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/attack"
	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The key-bytes suite pins the literal strings every figure-layer store is
// keyed by, black box: it plants entries (or provokes refs) under
// hand-written keys and checks the production path finds them. A store
// written by an earlier build of the same layout therefore still hits, and
// any change to a key's bytes — a reordered field, a new format verb, a
// version bump — fails here and must be made on purpose.

// plantResult writes a disk-cache entry under the literal key, as an
// earlier process would have left it.
func plantResult(t *testing.T, dir, key string, res sim.RunResult) {
	t.Helper()
	sum := sha256.Sum256([]byte(key))
	path := filepath.Join(dir, "results", hex.EncodeToString(sum[:])+".json")
	b, err := json.Marshal(cachedEntry{Key: key, Cycles: uint64(res.Cycles),
		Committed: res.Committed, Counters: res.Counters})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func executeOne(t *testing.T, j Job) sim.RunResult {
	t.Helper()
	outs, err := (&Executor{Workers: 1}).Execute(context.Background(), []Job{j})
	if err != nil {
		t.Fatal(err)
	}
	return outs[0].Res
}

var errPinCrash = errors.New("crash after first checkpoint")

// TestKeyBytesWorkloadCellAndChain pins a warm snapshot's ref, a mid-run
// checkpoint chain's ref and a workload cell's result key, all with the
// warm-up and cadence fields set.
func TestKeyBytesWorkloadCellAndChain(t *testing.T) {
	defer ResetRunCache()
	ResetRunCache()
	fp := BinFingerprint()
	dir := t.TempDir()
	spec, _ := workload.ByName("hmmer")
	opt := Options{Scale: 0.05, MaxCycles: 4_000_000, WarmupInsts: 1500,
		CheckpointEvery: 2000, CacheDir: dir}

	crash := opt
	crash.ckptSpy = func(n int) error { return errPinCrash }
	if _, err := RunOne(context.Background(), spec, defense.MuonTrap(), crash); !errors.Is(err, errPinCrash) {
		t.Fatalf("err = %v, want the simulated crash", err)
	}
	st, err := checkpoint.NewStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	warmRef := "warm|v" + strconv.Itoa(checkpoint.FormatVersion) + "|bin=" + fp +
		"|wl=hmmer|scale=0.05|insts=1500"
	snap, ok := st.Resolve(warmRef)
	if !ok {
		t.Fatalf("no warm snapshot under %q", warmRef)
	}
	cell := "result|v2|bin=" + fp + "|wl=hmmer|scheme=muontrap|scale=0.05|max=4000000" +
		"|l0d=0/0|warm=1500|snap=" + snap + "|every=2000"
	if _, ok := st.Resolve("midrun|" + cell); !ok {
		t.Fatalf("no mid-run chain under %q", "midrun|"+cell)
	}

	ResetRunCache()
	planted := sim.RunResult{Cycles: 424242, Committed: 7, Counters: map[string]uint64{"pinned": 1}}
	plantResult(t, dir, cell, planted)
	got := executeOne(t, Job{Spec: spec, Scheme: defense.MuonTrap(), Opt: opt, Series: "s", Work: spec.Name})
	if got.Cycles != planted.Cycles || got.Counters["pinned"] != 1 {
		t.Fatalf("cell missed the entry planted under %q: got %d cycles", cell, got.Cycles)
	}
}

// TestKeyBytesAttackCell pins a security-matrix cell's key: the scenario's
// canonical encoding under "attack:", with every workload sizing field
// cleared whatever the options say.
func TestKeyBytesAttackCell(t *testing.T) {
	defer ResetRunCache()
	ResetRunCache()
	dir := t.TempDir()
	sc, ok := attack.ScenarioByName("spectre")
	if !ok {
		t.Fatal("spectre scenario missing")
	}
	key := "result|v2|bin=" + BinFingerprint() + "|wl=attack:scenario/v1|name=spectre" +
		"|gadget=index-load|train=bounds-branch|chan=probe-reload|decide=fastest-outlier" +
		"|cand=15|stride=512|dist=0|delta=0|secret=11" +
		"|scheme=muontrap|scale=0|max=0|l0d=0/0|warm=0|snap=|every=0"
	// A leak under muontrap is a verdict the simulator never produces, so
	// reading it back proves the cell was served from the planted entry.
	plantResult(t, dir, key, encodeAttackResult(attack.Result{Secret: 11, Leaked: 11, Succeeded: true, Signal: 9}))
	j := AttackJob(sc, defense.MuonTrap(), Options{Scale: 0.3, MaxCycles: 99,
		WarmupInsts: 500, CheckpointEvery: 100, CacheDir: dir})
	r, ok := DecodeAttackCounters(sc.Name, executeOne(t, j).Counters)
	if !ok || !r.Succeeded || r.Leaked != 11 {
		t.Fatalf("attack cell missed the entry planted under %q: %+v", key, r)
	}
}

// TestKeyBytesGeometryCell pins the Fig 5/6 cells' keys: the renamed
// scheme and the data filter cache geometry. Every cell of a one-point
// sweep is planted, so the figure is assembled without simulating.
func TestKeyBytesGeometryCell(t *testing.T) {
	defer ResetRunCache()
	ResetRunCache()
	fp := BinFingerprint()
	dir := t.TempDir()
	opt := Options{Scale: 0.01, MaxCycles: 5_000_000, CacheDir: dir}
	for _, sp := range workload.Parsec() {
		base := "result|v2|bin=" + fp + "|wl=" + sp.Name + "|scheme=insecure|scale=0.01|max=5000000" +
			"|l0d=0/0|warm=0|snap=|every=0"
		geom := "result|v2|bin=" + fp + "|wl=" + sp.Name + "|scheme=muontrap-sweep|scale=0.01|max=5000000" +
			"|l0d=256/4|warm=0|snap=|every=0"
		plantResult(t, dir, base, sim.RunResult{Cycles: 1000})
		plantResult(t, dir, geom, sim.RunResult{Cycles: 1250})
	}
	tbl, err := geometryFigure(context.Background(), "pin", opt,
		func(int) string { return "256B" }, func(int) (uint64, int) { return 256, 4 }, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range workload.Parsec() {
		if v := tbl.Series[0].Values[sp.Name]; v != 1.25 {
			t.Fatalf("%s: normalised time %g, want the planted 1.25", sp.Name, v)
		}
	}
}
