package figures

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// The chain suite: a mid-run checkpoint chain is two slot files written in
// place, so what a crash can leave behind is a damaged slot. Every case
// below must end in the uninterrupted run's result, bit for bit.

// chainOptions is a checkpointing hmmer cell with a few checkpoints.
func chainOptions(dir string) Options {
	opt := tinyOptions()
	opt.Scale = 0.1
	opt.CheckpointEvery = 2000
	opt.CacheDir = dir
	return opt
}

// crashAfter runs the cell until checkpoint n has been saved, then
// "crashes", and returns the chain's key.
func crashAfter(t *testing.T, opt Options, n int) string {
	t.Helper()
	ResetRunCache()
	opt.ckptSpy = func(k int) error {
		if k == n {
			return errSimulatedCrash
		}
		return nil
	}
	spec := simtest.MustSpec(t, "hmmer")
	if _, err := RunOne(context.Background(), spec, defense.MuonTrap(), opt); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("crash run: got %v, want simulated crash", err)
	}
	return midrunKey(runKey{workload: spec.Name, scheme: defense.MuonTrap().Name, scale: opt.Scale,
		maxCycles: opt.MaxCycles, every: opt.CheckpointEvery})
}

// resumeCounting resumes the cell, returning its result, how many
// checkpoints the resumed run took and the warnings it raised.
func resumeCounting(t *testing.T, opt Options) (sim.RunResult, int, []string) {
	t.Helper()
	ResetRunCache()
	var warnings []string
	oldWarnf := warnf
	warnf = func(format string, args ...any) { warnings = append(warnings, fmt.Sprintf(format, args...)) }
	defer func() { warnf = oldWarnf }()
	opt.Resume = true
	taken := 0
	opt.ckptSpy = func(n int) error { taken = n; return nil }
	res, err := RunOne(context.Background(), simtest.MustSpec(t, "hmmer"), defense.MuonTrap(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, taken, warnings
}

// uninterrupted runs the cell to completion in its own cache directory.
func uninterrupted(t *testing.T) (sim.RunResult, int) {
	t.Helper()
	ResetRunCache()
	opt := chainOptions(t.TempDir())
	taken := 0
	opt.ckptSpy = func(n int) error { taken = n; return nil }
	res, err := RunOne(context.Background(), simtest.MustSpec(t, "hmmer"), defense.MuonTrap(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if taken < 4 {
		t.Fatalf("test premise broken: only %d checkpoints in the full run", taken)
	}
	return res, taken
}

// damageSlot rewrites the slot holding checkpoint g of the chain.
func damageSlot(t *testing.T, dir, key string, g uint64, harm func([]byte) []byte) {
	t.Helper()
	st, err := checkpoint.NewStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	if snap, got, _ := st.Latest(key); snap == nil || got < g {
		t.Fatalf("chain's newest checkpoint is %d, want at least %d", got, g)
	}
	var path string
	ents, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), fmt.Sprintf(".slot%d", g%2)) {
			path = filepath.Join(st.Dir(), e.Name())
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, harm(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeFallsBackFromDamagedNewestSlot: a crash mid-write leaves the
// newest slot truncated, garbled or empty. Resume restores the older
// checkpoint instead — silently, since nothing was lost but one cadence
// of work — and finishes bit-identical to the uninterrupted run.
func TestResumeFallsBackFromDamagedNewestSlot(t *testing.T) {
	defer ResetRunCache()
	full, fullCkpts := uninterrupted(t)
	for name, harm := range map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)/2] },
		"bit flip":    func(b []byte) []byte { b[len(b)-100] ^= 0x01; return b },
		"zero length": func([]byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			opt := chainOptions(t.TempDir())
			key := crashAfter(t, opt, 3)
			damageSlot(t, opt.CacheDir, key, 3, harm)
			res, taken, warnings := resumeCounting(t, opt)
			simtest.ResultsEqual(t, "resume past a damaged slot", full, res)
			if taken != fullCkpts-2 {
				t.Fatalf("resumed run took %d checkpoints, want %d (from checkpoint #2 of %d)", taken, fullCkpts-2, fullCkpts)
			}
			if len(warnings) != 0 {
				t.Fatalf("falling back one checkpoint warned: %q", warnings)
			}
		})
	}
}

// TestResumeWithBothSlotsDamagedStartsCold: with nothing intact in the
// chain, resume says so once and runs from cold to the same result.
func TestResumeWithBothSlotsDamagedStartsCold(t *testing.T) {
	defer ResetRunCache()
	full, fullCkpts := uninterrupted(t)
	opt := chainOptions(t.TempDir())
	key := crashAfter(t, opt, 3)
	flip := func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }
	damageSlot(t, opt.CacheDir, key, 3, flip)
	damageSlot(t, opt.CacheDir, key, 2, func([]byte) []byte { return nil })
	res, taken, warnings := resumeCounting(t, opt)
	simtest.ResultsEqual(t, "resume over a dead chain", full, res)
	if taken != fullCkpts {
		t.Fatalf("cold restart took %d checkpoints, want all %d", taken, fullCkpts)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "restarting from cold") {
		t.Fatalf("want one cold-restart warning, got %q", warnings)
	}
}

// TestConcurrentRunsShareOneChain: two runs of the same checkpointed cell
// over one cache directory — one fresh, one resuming from whatever the
// other has written so far — write the same chain at once. Both results
// are the uninterrupted run's, and the chain is gone once both finish.
func TestConcurrentRunsShareOneChain(t *testing.T) {
	defer ResetRunCache()
	full, _ := uninterrupted(t)
	ResetRunCache()
	dir := t.TempDir()
	spec := simtest.MustSpec(t, "hmmer")
	var wg sync.WaitGroup
	results := make([]sim.RunResult, 4)
	errs := make([]error, len(results))
	for i := range results {
		opt := chainOptions(dir)
		opt.Resume = i%2 == 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = RunOne(context.Background(), spec, defense.MuonTrap(), opt)
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		simtest.ResultsEqual(t, fmt.Sprintf("concurrent run %d", i), full, res)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("finished runs left %d files in the snapshot store, want 0", len(ents))
	}
}
