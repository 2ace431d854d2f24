package sim

import (
	"context"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/event"
)

// machineFormat versions the machine-state payload layout inside a
// snapshot (the container format is versioned separately by the
// checkpoint package). Bump on any incompatible change to a component's
// Save encoding.
//
// v2 added mid-run checkpoint support: the stats baseline (the cycle the
// measured region started, so restored runs report deltas correctly) and
// per-core scheduling state — retired-instruction counts, the next OS
// timer deadline and the RunOn assignment (PID, thread) — which a
// warm-up-only snapshot never needed because nothing had run yet.
//
// v3 made every table payload proportional to what the structure holds:
// cache arrays, TLBs, the prefetcher table and the predictor's BTB and
// local-history table write a count and then each valid (or non-zero)
// entry prefixed by its ascending index, where v2 wrote every way of
// every set (a 4-core image went from 1.47 MB to about 0.2 MB).
//
// v4 saves only the counters something reads, each component's in the
// order of its counter table (ARCHITECTURE.md lists the ones dropped).
const machineFormat = 4

// drainBound caps how many cycles Drain will step while waiting for the
// machine to quiesce. It is far beyond any legitimate drain (the deepest
// dependency chain is ROB depth × DRAM row-miss latency plus a timer
// stall or two); hitting it means a component is leaking in-flight state.
const drainBound = 2_000_000

// busy names the first part of the machine still holding something: the
// scheduler (part < 0), core number part, or the memory system (part ==
// len(s.Cores)); held is false at a checkpointable boundary. It does not
// allocate: the drain loop polls it every cycle.
func (s *System) busy() (part int, held bool) {
	if s.Sched.Pending() > 0 {
		return -1, true
	}
	for ci, c := range s.Cores {
		if !c.Quiet() {
			return ci, true
		}
	}
	return len(s.Cores), !s.Hier.Quiet()
}

// Quiesced reports whether the whole machine is at a checkpointable
// boundary. The error names the specific component that holds state.
func (s *System) Quiesced() error {
	part, held := s.busy()
	switch {
	case !held:
		return nil
	case part < 0:
		return fmt.Errorf("sim: %d pending events in the scheduler", s.Sched.Pending())
	case part < len(s.Cores):
		return fmt.Errorf("sim: core %d: %w", part, s.Cores[part].Quiesced())
	}
	return s.Hier.Quiesced()
}

// Drain brings a running machine to a checkpointable boundary: fetch is
// parked on every core, the ROBs retire their in-flight instructions,
// store buffers, MSHRs, page-table walks, prefetches and filter-cache
// writebacks complete, and the event queue runs dry. On success the
// machine satisfies Quiesced() with fetch still parked — call ResumeFetch
// (or CheckpointAt, which does) to continue execution.
//
// Drain advances the simulated clock: the cycles it takes are real
// simulated time, identical on every machine in the same state, so runs
// that drain at the same points remain bit-exactly comparable. If the
// machine refuses to quiesce within the cycle bound, the error names the
// component still holding state.
func (s *System) Drain(ctx context.Context) error {
	return s.drainWithin(ctx, drainBound)
}

func (s *System) drainWithin(ctx context.Context, bound int) error {
	for _, c := range s.Cores {
		c.StopFetch()
	}
	done := ctx.Done()
	limit := s.Sched.Now() + event.Cycle(bound)
	for i := 0; s.Sched.Now() < limit; i++ {
		if _, held := s.busy(); !held {
			return nil
		}
		if done != nil && i%64 == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		s.cycle(limit)
	}
	if err := s.Quiesced(); err != nil {
		return fmt.Errorf("sim: machine refused to drain within %d cycles: %w", bound, err)
	}
	return nil
}

// ResumeFetch reopens the front end on every core after a Drain.
func (s *System) ResumeFetch() {
	for _, c := range s.Cores {
		c.ResumeFetch()
	}
}

// Checkpoint serialises the machine into a snapshot: physical memory,
// per-core architectural state and branch predictors, cache and TLB
// contents, directory/coherence state, DRAM timing state and every
// statistics baseline. The machine must be quiesced — the format has no
// encoding for in-flight state, which is what keeps restores bit-exact.
// Use CheckpointAt to reach quiescence from a running machine.
func (s *System) Checkpoint() (*checkpoint.Snapshot, error) {
	return s.snapshot(false, 0)
}

// CheckpointAt drains the machine to a quiescent boundary, snapshots it,
// and resumes fetch. base is the stats baseline: the cycle the measured
// region started, recorded in the snapshot so a run restored from it
// reports Cycles as a delta from the region's true start, exactly as the
// uninterrupted run would.
func (s *System) CheckpointAt(ctx context.Context, base event.Cycle) (*checkpoint.Snapshot, error) {
	if err := s.Drain(ctx); err != nil {
		return nil, err
	}
	snap, err := s.snapshot(true, base)
	if err != nil {
		return nil, err
	}
	s.ResumeFetch()
	return snap, nil
}

func (s *System) snapshot(midRun bool, base event.Cycle) (*checkpoint.Snapshot, error) {
	if err := s.Quiesced(); err != nil {
		return nil, fmt.Errorf("sim: checkpoint requires a quiesced machine: %w", err)
	}
	snap := checkpoint.New()
	w := snap.Section("machine")
	w.Grow(4 + 4 + 5*8 + 1 + 8 + len(s.Cores)*(8+8+8+4))
	w.U32(machineFormat)
	w.U32(uint32(len(s.Cores)))
	w.U64(uint64(s.Sched.Now()))
	for _, r := range systemCounters {
		w.U64(*r.at(s))
	}
	w.U64(s.ContextSwitches)
	w.U64(s.TimerTicks)
	w.Bool(midRun)
	w.U64(uint64(base))
	for ci, c := range s.Cores {
		w.U64(c.CommittedInsts())
		w.U64(uint64(s.nextTimer[ci]))
		if p := s.running[ci]; p != nil {
			w.U64(p.PID)
		} else {
			w.U64(0)
		}
		w.U32(uint32(s.runThread[ci]))
	}
	s.Phys.Save(snap.Section("phys"))
	s.Hier.Save(snap)
	for i, c := range s.Cores {
		c.Save(snap.Section(fmt.Sprintf("core%d", i)))
	}
	return snap, nil
}

// CheckFormat reports whether the snapshot's machine payload is in this
// build's layout. It reads nothing but the format word, so a caller
// holding a store that an older build may have written can tell a stale
// image (rebuild it, or start cold) from a usable one before restoring a
// byte of it into a machine.
func CheckFormat(snap *checkpoint.Snapshot) error {
	r, err := snap.Open("machine")
	if err != nil {
		return err
	}
	f := r.U32()
	if err := r.Err(); err != nil {
		return err
	}
	if f != machineFormat {
		return fmt.Errorf("sim: snapshot machine format %d, want %d (incompatible snapshot; rebuild it)", f, machineFormat)
	}
	return nil
}

// RestoreSnapshot loads a snapshot into this machine, which must be
// freshly assembled the same way the checkpointed one was (same core
// count, same cache/TLB/predictor geometry, processes created and
// scheduled with the same RunOn sequence), quiesced, and no further along
// in simulated time than the snapshot — the clock is advanced to the
// snapshot's cycle, so mid-run checkpoints restore into cycle-0 machines.
// After it returns, running the machine produces bit-identical cycles,
// instruction counts and statistics to continuing the machine the
// snapshot was taken from.
//
// Protection schemes may differ between the two machines only for
// warm-up snapshots (taken before any detailed simulation): those carry
// no speculative state, so a snapshot from an unprotected machine
// restores into any scheme's machine. A mid-run snapshot carries filter
// cache and coherence state and must be restored into an identically
// configured machine.
func (s *System) RestoreSnapshot(snap *checkpoint.Snapshot) error {
	if err := s.Quiesced(); err != nil {
		return fmt.Errorf("sim: restore requires a quiesced machine: %w", err)
	}
	if err := CheckFormat(snap); err != nil {
		return err
	}
	r, err := snap.Open("machine")
	if err != nil {
		return err
	}
	r.U32() // machineFormat, checked above
	if n := int(r.U32()); n != len(s.Cores) {
		return fmt.Errorf("sim: snapshot has %d cores, machine has %d", n, len(s.Cores))
	}
	snapNow := event.Cycle(r.U64())
	if snapNow < s.Sched.Now() {
		return fmt.Errorf("sim: snapshot taken at cycle %d, machine already at %d", snapNow, s.Sched.Now())
	}
	for _, c := range systemCounters {
		*c.at(s) = r.U64()
	}
	s.ContextSwitches = r.U64()
	s.TimerTicks = r.U64()
	midRun := r.Bool()
	base := event.Cycle(r.U64())
	retired := make([]uint64, len(s.Cores))
	for ci := range s.Cores {
		retired[ci] = r.U64()
		s.nextTimer[ci] = event.Cycle(r.U64())
		pid := r.U64()
		thread := int(r.U32())
		var runPID uint64
		if p := s.running[ci]; p != nil {
			runPID = p.PID
		}
		if pid != runPID || (pid != 0 && thread != s.runThread[ci]) {
			return fmt.Errorf("sim: core %d: snapshot scheduled pid %d thread %d, machine pid %d thread %d (RunOn sequences differ)",
				ci, pid, thread, runPID, s.runThread[ci])
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	pr, err := snap.Open("phys")
	if err != nil {
		return err
	}
	if err := s.Phys.Restore(pr); err != nil {
		return err
	}
	if err := s.Hier.Restore(snap); err != nil {
		return err
	}
	for i, c := range s.Cores {
		cr, err := snap.Open(fmt.Sprintf("core%d", i))
		if err != nil {
			return err
		}
		if err := c.Restore(cr); err != nil {
			return fmt.Errorf("sim: core %d: %w", i, err)
		}
		if got := c.CommittedInsts(); got != retired[i] {
			return fmt.Errorf("sim: core %d: machine section says %d retired, core section restored %d (corrupt snapshot)",
				i, retired[i], got)
		}
	}
	// An empty event queue makes the jump to the snapshot's cycle a pure
	// clock change; Quiesced() above guaranteed it.
	s.Sched.AdvanceTo(snapNow)
	if midRun {
		s.resumedMidRun = true
		s.resumeBase = base
	}
	return nil
}
