package figures

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"repro/internal/defense"
	"repro/internal/isa"
	"repro/internal/simtest"
	"repro/internal/workload"
)

// builds records what buildProgram built while a test ran.
type builds struct {
	mu    sync.Mutex
	count map[progKey]int
	last  map[progKey]weak.Pointer[isa.Program]
}

// recordBuilds makes buildProgram count its calls per program, and keep a
// weak pointer to the last program it built for each, until the test
// ends.
func recordBuilds(t *testing.T) *builds {
	t.Helper()
	b := &builds{count: map[progKey]int{}, last: map[progKey]weak.Pointer[isa.Program]{}}
	orig := buildProgram
	buildProgram = func(s workload.Spec, scale float64) *isa.Program {
		p := orig(s, scale)
		k := progKey{spec: s, scale: scale}
		b.mu.Lock()
		b.count[k]++
		b.last[k] = weak.Make(p)
		b.mu.Unlock()
		return p
	}
	t.Cleanup(func() { buildProgram = orig })
	return b
}

func (b *builds) of(k progKey) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count[k]
}

// collected reports whether the last program built for k is garbage.
func (b *builds) collected(k progKey) bool {
	b.mu.Lock()
	wp, ok := b.last[k]
	b.mu.Unlock()
	runtime.GC()
	return ok && wp.Value() == nil
}

// tableSize is how many rows hold a program.
func tableSize() int {
	progMu.Lock()
	defer progMu.Unlock()
	return len(programs)
}

// rowJobs is one figure row of every kind of cell that runs a workload
// program: the kernel under all 13 schemes, one Fig 5/6 geometry cell and
// one cell forked from a warm snapshot, all at opt's scale.
func rowJobs(spec workload.Spec, opt Options) []Job {
	var jobs []Job
	for _, sch := range defense.All() {
		jobs = append(jobs, Job{Spec: spec, Scheme: sch, Opt: opt, Series: sch.Name, Work: spec.Name})
	}
	jobs = append(jobs, Job{Spec: spec, Scheme: sweepScheme(), Opt: opt, Series: "512B", Work: spec.Name,
		l0dSize: 512, l0dAssoc: 8})
	warm := opt
	warm.WarmupInsts = 2_000
	return append(jobs, Job{Spec: spec, Scheme: defense.MuonTrap(), Opt: warm, Series: "warm", Work: spec.Name})
}

// TestRowBuildsItsProgramOnce: one Execute of a row builds the row's
// program once — for 13 standard cells, a geometry cell and the warm-up
// machine — and drops it when the last job returns. Memo hits build
// nothing, and a row with a failing cell or a cancelled context lets go
// of its program as well.
func TestRowBuildsItsProgramOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer ResetRunCache()
	ResetRunCache()
	built := recordBuilds(t)
	spec := simtest.MustSpec(t, "swaptions")
	opt := Options{Scale: 0.02, MaxCycles: 20_000_000}
	key := progKey{spec: spec, scale: opt.Scale}
	jobs := rowJobs(spec, opt)
	if len(jobs) != 15 {
		t.Fatalf("row has %d cells, want 13 schemes + geometry + warm", len(jobs))
	}

	check := func(what string, wantBuilds int) {
		t.Helper()
		if got := built.of(key); got != wantBuilds {
			t.Errorf("%s: %s built %d times, want %d", what, spec.Name, got, wantBuilds)
		}
		if n := tableSize(); n != 0 {
			t.Errorf("%s: %d rows still hold a program after Execute returned", what, n)
		}
	}

	ex := Executor{Workers: 2}
	if _, err := ex.Execute(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	check("first pass", 1)
	if _, err := ex.Execute(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	check("all memo hits", 1)

	// A cell that fails, in a row of cells that have not run yet.
	ResetRunCache()
	failing := append([]Job(nil), jobs...)
	failing[3].Opt.MaxCycles = 50
	if _, err := ex.Execute(context.Background(), failing); err == nil || !strings.Contains(err.Error(), "did not complete") {
		t.Fatalf("err = %v, want the cycle bound's error", err)
	}
	check("failed cell", 2)

	// Cancelled after the first result, and before the first job.
	ResetRunCache()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := Executor{Workers: 2, OnResult: func(Outcome) { cancel() }}
	if _, err := stop.Execute(ctx, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	check("cancelled mid-row", 3)
	if _, err := stop.Execute(ctx, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	check("cancelled before the row", 3)
}

// TestFinishedRowLetsGoOfItsProgram: once the last job of a row returns,
// nothing keeps the row's program reachable, while the sweep goes on
// with the next row — so a sweep holds the programs of its rows in
// flight, not of every row it ran.
func TestFinishedRowLetsGoOfItsProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer ResetRunCache()
	ResetRunCache()
	built := recordBuilds(t)
	opt := Options{Scale: 0.02, MaxCycles: 20_000_000}
	first, second := simtest.MustSpec(t, "hmmer"), simtest.MustSpec(t, "povray")
	var jobs []Job
	for _, sp := range []workload.Spec{first, second} {
		for _, sch := range []defense.Scheme{defense.Insecure(), defense.MuonTrap()} {
			jobs = append(jobs, Job{Spec: sp, Scheme: sch, Opt: opt, Series: sch.Name, Work: sp.Name})
		}
	}
	firstKey := progKey{spec: first, scale: opt.Scale}
	checked := false
	ex := Executor{Workers: 1, OnResult: func(o Outcome) {
		if o.Job.Spec.Name == second.Name && !checked {
			checked = true
			if !built.collected(firstKey) {
				t.Errorf("%s's program is still reachable while the next row runs", first.Name)
			}
		}
	}}
	if _, err := ex.Execute(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("the second row reported no result")
	}
}

// programDigest hashes everything a machine could write in a program: its
// name and entry, every instruction, every data segment and the static
// table.
func programDigest(t *testing.T, p *isa.Program) [32]byte {
	t.Helper()
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(h, "%s|", p.Name)
	put(p.Entry)
	put(p.Text)
	for _, d := range p.Data {
		fmt.Fprintf(h, "%s|", d.Name)
		put([]uint64{d.Base, d.ZeroLen, uint64(len(d.Bytes))})
		put(d.Shared)
		h.Write(d.Bytes)
	}
	for pc := isa.TextBase; pc < p.TextEnd(); pc += isa.InstBytes {
		si, ok := p.StaticAt(pc)
		if !ok {
			t.Fatalf("%s: no static instruction at %#x", p.Name, pc)
		}
		put(si)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// TestSharedProgramIsReadOnly: running a row — every scheme, a geometry
// cell and a warm-up — leaves its shared program byte-identical, for a
// one-core kernel and for ferret, a four-core kernel whose threads take
// syscalls (domain switches) and spin on locks.
func TestSharedProgramIsReadOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale simulation")
	}
	defer ResetRunCache()
	built := recordBuilds(t)
	for _, tc := range []struct {
		work  string
		scale float64
	}{{"gcc", 0.05}, {"ferret", 0.4}} {
		ResetRunCache()
		spec := simtest.MustSpec(t, tc.work)
		opt := Options{Scale: tc.scale, MaxCycles: 20_000_000}
		row := acquireProgram(Job{Spec: spec, Opt: opt})
		prog := row.program()
		before := programDigest(t, prog)
		outs, err := (&Executor{Workers: 2}).Execute(context.Background(), rowJobs(spec, opt))
		if err != nil {
			row.release()
			t.Fatal(err)
		}
		syscalls := uint64(0)
		for _, o := range outs {
			for k, v := range o.Res.Counters {
				if strings.HasSuffix(k, ".syscalls") {
					syscalls += v
				}
			}
		}
		if n := built.of(row.key); n != 1 {
			t.Errorf("%s: built %d times, want once (the row's program, before the row ran)", tc.work, n)
		}
		if after := programDigest(t, prog); after != before {
			t.Errorf("%s: running the row wrote its program", tc.work)
		}
		if tc.work == "ferret" && syscalls == 0 {
			t.Errorf("%s: no cell committed a syscall", tc.work)
		}
		row.release()
	}
}
