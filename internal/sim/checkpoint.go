package sim

import (
	"context"
	"fmt"
	"slices"

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
//
// v5 saves only what the filter caches hold themselves: the hierarchy's
// filter-sharer map, each port's last committed instruction line and the
// filter caches' flush statistics are gone.
//
// v6 saves only what the L1s hold themselves: the L2 directory (owner,
// owner state, sharer and instruction-sharer masks per line) is gone, as
// is the prefetcher's presence flag, since every hierarchy has one.
//
// v7 saves only what a structure's behaviour reads: the filter caches',
// TLBs' and DRAM's statistics move into their port's and the hierarchy's
// counter arrays, a cache line or TLB entry saves its recency rank instead
// of an LRU stamp under an array-wide tick, and busy-until cycles (L2 port,
// DRAM banks and bus, commit stall, fetch resume, dividers) save as the
// cycles still to wait, loaded relative to the snapshot's cycle.
//
// v8 saves no record of which filter cache owns a line: the hierarchy's
// filter-owner map is gone, and coherence finds a data filter cache's E
// copy by snooping it.
//
// v9 saves a warm image with every counter zero: the functional warm-up
// no longer counts the remote downgrades, L2 writebacks and DRAM accesses
// its deposits cause.
//
// v10 saves one section per structure or counter array, named after the
// counter keys ("l2", "dram", "core0.l1d", "core0.regs", ...), where v9
// saved one "hier" section, and per core one "port<i>" and one "core<i>"
// section. A port's filter caches and filter TLB lose their presence
// flags: a structure the configuration lacks writes no section. The
// format word moves out of the "machine" section into a "format" section
// of its own.
const machineFormat = 10

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
// contents (the L1s' line states are the coherence state), DRAM timing
// state and every statistics baseline. The machine must be quiesced — the
// format has no encoding for in-flight state, which is what keeps
// restores bit-exact.
// Use CheckpointAt to reach quiescence from a running machine.
func (s *System) Checkpoint() (*checkpoint.Snapshot, error) {
	snap := checkpoint.New()
	if err := s.snapshot(snap, false, 0); err != nil {
		return nil, err
	}
	return snap, nil
}

// CheckpointAt drains the machine to a quiescent boundary, snapshots it
// into a new image, and resumes fetch. base is the stats baseline: the
// cycle the measured region started, recorded in the snapshot so a run
// restored from it reports Cycles as a delta from the region's true
// start, exactly as the uninterrupted run would.
func (s *System) CheckpointAt(ctx context.Context, base event.Cycle) (*checkpoint.Snapshot, error) {
	snap := checkpoint.New()
	if err := s.checkpointInto(ctx, snap, base); err != nil {
		return nil, err
	}
	return snap, nil
}

// checkpointInto is CheckpointAt refilling snap in place of a new image:
// RunUntilHaltCkpt takes every checkpoint of a run into one image.
func (s *System) checkpointInto(ctx context.Context, snap *checkpoint.Snapshot, base event.Cycle) error {
	if err := s.Drain(ctx); err != nil {
		return err
	}
	if err := s.snapshot(snap, true, base); err != nil {
		return err
	}
	s.ResumeFetch()
	return nil
}

// snapshot refills snap with the quiesced machine (see Snapshot.Reset).
func (s *System) snapshot(snap *checkpoint.Snapshot, midRun bool, base event.Cycle) error {
	if err := s.Quiesced(); err != nil {
		return fmt.Errorf("sim: checkpoint requires a quiesced machine: %w", err)
	}
	snap.Reset()
	s.image = machineImage{now: s.Sched.Now(), midRun: midRun, base: base}
	rows := s.checkpointRows()
	snap.Grow(len(rows))
	for _, r := range rows {
		snap.Put(r.Name, r.Walk)
	}
	return nil
}

// machineImage is what the "machine" section holds beyond the system's
// own fields: the snapshot's cycle, whether it was taken mid-run and the
// stats baseline, and — read on a load, checked once the cores are
// restored — each core's retired-instruction count.
type machineImage struct {
	now, base event.Cycle
	midRun    bool
	retired   []uint64
}

// checkpointRows lists the machine's sections, one per structure or
// counter array: "format", "machine" and "phys", the shared level's, then
// per core its port's and its own. It builds them at the first
// checkpoint or restore; Release drops them.
func (s *System) checkpointRows() []checkpoint.Row {
	if s.rows == nil {
		s.rows = append(s.rows,
			checkpoint.Row{Name: "format", Walk: format},
			checkpoint.Row{Name: "machine", Walk: s.machine},
			checkpoint.Row{Name: "phys", Walk: s.Phys.Checkpoint})
		s.rows = s.Hier.Rows(s.rows)
		for i, c := range s.Cores {
			s.rows = c.Rows(s.Hier.Port(i).Rows(s.rows))
		}
	}
	return s.rows
}

// format walks the "format" section: the machineFormat word alone. A load
// of any other format fails.
func format(st *checkpoint.State) {
	f := uint32(machineFormat)
	if st.U32(&f); st.Loading() && f != machineFormat {
		st.Fail(fmt.Errorf("sim: snapshot machine format %d, want %d (incompatible snapshot; rebuild it)", f, machineFormat))
	}
}

// machine walks the "machine" section: the core count, the cycle, the
// system counters, the mid-run flag and baseline, then per core its
// retired count, next timer deadline and RunOn assignment (PID, thread).
// A load checks the core count and that the machine is not past the
// snapshot's cycle, advances the clock to it, and checks that the RunOn
// sequences agree.
func (s *System) machine(st *checkpoint.State) {
	m := &s.image
	cores := uint32(len(s.Cores))
	if st.U32(&cores); st.Loading() && int(cores) != len(s.Cores) {
		st.Fail(fmt.Errorf("sim: snapshot has %d cores, machine has %d", cores, len(s.Cores)))
	}
	if st.U64((*uint64)(&m.now)); st.Loading() {
		if m.now < s.Sched.Now() {
			st.Fail(fmt.Errorf("sim: snapshot taken at cycle %d, machine already at %d", m.now, s.Sched.Now()))
		}
		// An empty event queue (RestoreSnapshot checked Quiesced) makes
		// the jump a pure clock change; every later section loads its
		// busy-until cycles relative to it.
		s.Sched.AdvanceTo(m.now)
	}
	for _, r := range systemCounters {
		st.U64(r.at(s))
	}
	st.U64(&s.ContextSwitches)
	st.U64(&s.TimerTicks)
	st.Bool(&m.midRun)
	st.U64((*uint64)(&m.base))
	for ci, c := range s.Cores {
		retired := c.CommittedInsts()
		if st.U64(&retired); st.Loading() {
			m.retired[ci] = retired
		}
		st.U64((*uint64)(&s.nextTimer[ci]))
		var runPID uint64
		if p := s.running[ci]; p != nil {
			runPID = p.PID
		}
		pid, thread := runPID, uint32(s.runThread[ci])
		st.U64(&pid)
		if st.U32(&thread); st.Loading() && (pid != runPID || (pid != 0 && int(thread) != s.runThread[ci])) {
			st.Fail(fmt.Errorf("sim: core %d: snapshot scheduled pid %d thread %d, machine pid %d thread %d (RunOn sequences differ)",
				ci, pid, thread, runPID, s.runThread[ci]))
		}
	}
}

// CheckFormat reports whether the snapshot's machine payload is in this
// build's layout. It reads nothing but the "format" section, so a caller
// holding a store that an older build may have written can tell a stale
// image (rebuild it, or start cold) from a usable one before restoring a
// byte of it into a machine. An image without that section predates
// machineFormat 10, which gave the format word a section of its own.
func CheckFormat(snap *checkpoint.Snapshot) error {
	if !snap.Has("format") {
		return fmt.Errorf("sim: snapshot has no format section, so its machine format is older than 10 (incompatible snapshot; rebuild it)")
	}
	return snap.Get("format", format)
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
//
// The image must hold exactly this machine's sections, each read to its
// end: a section no row reads (a filter cache this machine lacks) and a
// missing section fail the restore before the machine changes, except
// that a filter structure the image lacks stays empty.
func (s *System) RestoreSnapshot(snap *checkpoint.Snapshot) error {
	if err := s.Quiesced(); err != nil {
		return fmt.Errorf("sim: restore requires a quiesced machine: %w", err)
	}
	if err := CheckFormat(snap); err != nil {
		return err
	}
	rows := s.checkpointRows()
	for _, name := range snap.Names() {
		if !slices.ContainsFunc(rows, func(r checkpoint.Row) bool { return r.Name == name }) {
			return fmt.Errorf("sim: snapshot has a %q section but this machine has no such structure", name)
		}
	}
	for _, r := range rows {
		if !r.MayBeMissing && !snap.Has(r.Name) {
			return fmt.Errorf("sim: snapshot has no %q section", r.Name)
		}
	}
	s.image = machineImage{retired: make([]uint64, len(s.Cores))}
	for _, r := range rows {
		if !snap.Has(r.Name) {
			continue // a structure the image's machine lacked stays empty
		}
		if err := snap.Get(r.Name, r.Walk); err != nil {
			return err
		}
	}
	for i, c := range s.Cores {
		if got := c.CommittedInsts(); got != s.image.retired[i] {
			return fmt.Errorf("sim: core %d: machine section says %d retired, core counters restored %d (corrupt snapshot)",
				i, s.image.retired[i], got)
		}
	}
	if s.image.midRun {
		s.resumedMidRun = true
		s.resumeBase = s.image.base
	}
	return nil
}
