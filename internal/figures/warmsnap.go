package figures

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/defense"
	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Per-workload warm snapshots: when Options.WarmupInsts > 0, every run of
// a figure row forks from one snapshot of post-warm-up machine state
// instead of re-simulating the warm-up per scheme. The snapshot is built
// by functionally fast-forwarding an *unprotected* machine (warm state is
// scheme-independent; see sim.Warmup) and is memoized in-process and — when
// a cache directory is configured — in a content-addressed disk store, so
// later invocations resume without re-executing the warm-up at all.

type snapEntry struct {
	once sync.Once
	snap *checkpoint.Snapshot
	hash string
	err  error
}

var (
	snapMu    sync.Mutex
	snapCache = map[string]*snapEntry{}
)

// warmInputKey identifies the inputs that determine a warm snapshot's
// content: the simulator build, the workload program (name and scale) and
// the warm-up depth. Core count and machine geometry follow from the
// workload's suite and the default configuration, which the build
// fingerprint pins.
func warmInputKey(spec workload.Spec, opt Options) string {
	return warmKind.Key(
		"wl", spec.Name,
		"scale", strconv.FormatFloat(opt.Scale, 'g', -1, 64),
		"insts", strconv.Itoa(opt.WarmupInsts))
}

// warmSnapshot returns (building if necessary) the shared warm snapshot
// for j's workload, plus its content hash. The warm-up machine runs j's
// program, so a row's warm-up shares the row's program.
func warmSnapshot(j Job) (*checkpoint.Snapshot, string, error) {
	spec, opt := j.Spec, j.Opt
	ikey := warmInputKey(spec, opt)
	snapMu.Lock()
	e := snapCache[ikey]
	if e == nil {
		e = &snapEntry{}
		snapCache[ikey] = e
	}
	snapMu.Unlock()
	e.once.Do(func() {
		var st *checkpoint.Store
		if opt.CacheDir != "" {
			var err error
			if st, err = checkpoint.NewStore(filepath.Join(opt.CacheDir, "snapshots")); err != nil {
				warnf("%s: warm snapshot will NOT be persisted (snapshot store: %v)", spec.Name, err)
			}
		}
		if st != nil {
			if hash, ok := st.Resolve(ikey); ok {
				// An unreadable image, or one in an older build's machine
				// format, is rebuilt and the ref re-linked below.
				if snap, err := st.Load(hash); err == nil && sim.CheckFormat(snap) == nil {
					e.snap, e.hash = snap, hash
					return
				}
			}
		}
		sys := assemble(figureConfig(spec, defense.Insecure()), j.program())
		sys.Warmup(opt.WarmupInsts)
		snap, err := sys.Checkpoint()
		sys.Release() // the image is a copy
		if err != nil {
			e.err = fmt.Errorf("%s: warm snapshot: %w", spec.Name, err)
			return
		}
		e.snap = snap
		if st != nil {
			// Put returns the content hash of the encoding it just wrote;
			// reuse it rather than re-encoding and re-hashing the snapshot.
			h, err := st.Put(snap)
			if err == nil {
				e.hash = h
				err = st.Link(ikey, h)
			}
			if err != nil {
				warnf("%s: warm snapshot not persisted: %v", spec.Name, err)
			}
		}
		if e.hash == "" {
			e.hash = snap.Hash()
		}
	})
	return e.snap, e.hash, e.err
}

// snapHashFor returns the warm snapshot's content hash for disk-cache
// keying (materialising the snapshot if needed). With warm-up disabled it
// returns the empty string.
func snapHashFor(j Job) (string, error) {
	if j.Opt.WarmupInsts <= 0 {
		return "", nil
	}
	_, hash, err := warmSnapshot(j)
	return hash, err
}

// resetSnapCache drops memoized warm snapshots (test hook, with
// ResetRunCache).
func resetSnapCache() {
	snapMu.Lock()
	snapCache = map[string]*snapEntry{}
	snapMu.Unlock()
}

// forkOrRun runs a freshly built system to completion under ctx, layering
// the snapshot machinery around it:
//
//   - with Resume set and a persisted mid-run checkpoint for this exact
//     run, the machine restores from it and continues — the crash-resume
//     path;
//   - otherwise, with WarmupInsts set, the workload's shared warm
//     snapshot is restored — the figure-row fork path;
//   - with CheckpointEvery set, the run drains and snapshots itself
//     periodically, saving each checkpoint into the run's chain under
//     CacheDir so a later invocation can resume; the chain holds the
//     latest two checkpoints and is dropped when the run completes.
//
// key is the run's completed identity (newRunKey), so the mid-run
// checkpoint chain is keyed by exactly the inputs the result cache uses.
//
// The warm snapshot build itself is not cancellable (it is architectural
// fast-forward, orders of magnitude cheaper than detailed simulation), so
// a cancelled warm-up never leaves a poisoned snapshot cache entry.
//
// forkOrRun is the end of sys's life: on every return path the machine is
// released, its tables going to the next cell's (the RunResult shares
// nothing with them).
func forkOrRun(ctx context.Context, j Job, sys *sim.System, key runKey) (sim.RunResult, error) {
	defer sys.Release()
	spec, opt := j.Spec, j.Opt
	var st checkpoint.ChainStore
	var mkey string
	if key.every > 0 {
		switch {
		case opt.SnapshotStore != nil:
			st = opt.SnapshotStore
		case opt.CacheDir != "":
			ls, err := checkpoint.NewStore(filepath.Join(opt.CacheDir, "snapshots"))
			if err != nil {
				// The run can proceed, but crash-resume durability is gone —
				// that failure must be loud, not discovered after a crash.
				warnf("%s: mid-run checkpoints will NOT be persisted (snapshot store: %v)", spec.Name, err)
			} else {
				st = ls
			}
		}
		if st != nil {
			mkey = midrunKey(key)
		}
	}
	resumed := false
	var ord uint64 // the ordinal of the chain's newest checkpoint
	if opt.Resume && st != nil {
		snap, g, err := st.Latest(mkey)
		if err == nil && snap != nil {
			err = sim.CheckFormat(snap)
		}
		switch {
		case err != nil:
			// An unreadable chain, or a checkpoint in an older build's
			// machine format, falls back to a cold start (the store is an
			// accelerator, never an oracle) — but the lost work is
			// reported, not hidden.
			warnf("%s: mid-run checkpoint unreadable, restarting from cold: %v", spec.Name, err)
		case snap != nil:
			if err := sys.RestoreSnapshot(snap); err != nil {
				return sim.RunResult{}, fmt.Errorf("%s: mid-run resume: %w", spec.Name, err)
			}
			resumed, ord = true, g
		}
	}
	if !resumed && opt.WarmupInsts > 0 {
		snap, _, err := warmSnapshot(j)
		if err != nil {
			return sim.RunResult{}, err
		}
		if err := sys.RestoreSnapshot(snap); err != nil {
			return sim.RunResult{}, fmt.Errorf("%s: snapshot fork: %w", spec.Name, err)
		}
	}
	var sink sim.CheckpointSink
	if st != nil || opt.ckptSpy != nil {
		taken := 0
		warned := false
		spy := opt.ckptSpy
		sink = func(snap *checkpoint.Snapshot) error {
			taken++
			if st != nil {
				// One write over checkpoint ord-2's slot: a crash mid-write
				// leaves checkpoint ord-1 resumable in the other slot. A
				// failed write (full disk, revoked permissions) keeps the
				// run alive but is reported once — silently losing
				// durability would defeat the feature's whole purpose.
				ord++
				if err := st.Save(mkey, ord, snap); err != nil && !warned {
					warned = true
					warnf("%s: mid-run checkpoint %d not persisted: %v", spec.Name, taken, err)
				}
			}
			if spy != nil {
				return spy(taken)
			}
			return nil
		}
	}
	if p := telemetry.ActiveSimProfiler(); p != nil {
		// Observation-only: samples the event-queue depth at checkpoint
		// drain boundaries. Never installed when profiling is off, so
		// golden/determinism runs execute the exact pre-telemetry path.
		sys.OnCheckpointSample = p.RecordQueueDepth
	}
	res, err := sys.RunUntilHaltCkpt(ctx, opt.MaxCycles, event.Cycle(key.every), sink)
	if err == nil && ord > 0 {
		// The run completed: its cached result supersedes the checkpoint
		// chain, so drop the chain instead of leaving two dead
		// full-machine images per finished cell.
		st.Drop(mkey)
	}
	return res, err
}

// warnf reports a non-fatal persistence degradation (snapshot store
// unusable, warm snapshot or checkpoint not written, checkpoint chain
// unreadable) on stderr. Simulations never fail for persistence reasons, but losing
// crash-resume durability silently would defeat the feature, so it is
// always said out loud. Var so tests can intercept.
var warnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "muontrap/figures: "+format+"\n", args...)
}

// midrunKey identifies the mid-run checkpoint chain of one exact run. It
// is derived from the same runKey serialization the disk result cache
// uses (diskKey), so the two can never drift: any input that
// distinguishes cached results also distinguishes checkpoint chains, and
// a resume can never continue the wrong experiment.
func midrunKey(key runKey) string {
	return "midrun|" + diskKey(key)
}
