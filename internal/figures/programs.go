package figures

import (
	"sync"

	"repro/internal/isa"
	"repro/internal/workload"
)

// A row's program. Every cell of a figure row runs the same binary: one
// kernel assembled at one scale, under each scheme. Execute lends each of
// its jobs the row's entry in a table keyed by (Spec, scale); the first
// machine that needs the program — a standard cell, a Fig 5/6 geometry
// cell, or the warm-up machine behind a warm snapshot — builds it, and
// every other machine of the row runs that same *isa.Program. A Program
// is immutable once built, so machines on different workers share it
// with no lock. An entry is counted, not collected: it is dropped when
// the last job holding it returns, so only rows in flight keep a
// program, and a sweep builds each of its programs exactly once.

// progKey names a program: the kernel's parameters and the scale its trip
// count is multiplied by.
type progKey struct {
	spec  workload.Spec
	scale float64
}

// progEntry is one row's program, built at most once. refs counts the
// jobs holding the entry; it is guarded by progMu.
type progEntry struct {
	key  progKey
	refs int
	once sync.Once
	prog *isa.Program
}

var (
	progMu   sync.Mutex
	programs = map[progKey]*progEntry{}
)

// buildProgram assembles a kernel. It is a variable so tests can count
// builds.
var buildProgram = workload.Build

// acquireProgram takes a reference on the entry of j's row, adding the
// entry if it is the row's first job. A Custom job builds its own
// machine and holds nothing (nil).
func acquireProgram(j Job) *progEntry {
	if j.Custom != nil {
		return nil
	}
	k := progKey{spec: j.Spec, scale: j.Opt.Scale}
	progMu.Lock()
	defer progMu.Unlock()
	e := programs[k]
	if e == nil {
		e = &progEntry{key: k}
		programs[k] = e
	}
	e.refs++
	return e
}

// release drops a reference taken by acquireProgram, and the entry with
// its program when it was the last. A nil entry is a no-op.
func (e *progEntry) release() {
	if e == nil {
		return
	}
	progMu.Lock()
	if e.refs--; e.refs == 0 {
		delete(programs, e.key)
	}
	progMu.Unlock()
}

// program returns the row's program, building it on first use.
func (e *progEntry) program() *isa.Program {
	e.once.Do(func() { e.prog = buildProgram(e.key.spec, e.key.scale) })
	return e.prog
}

// program is what the cell's machine runs: its row's shared program when
// the executor lent it one, else a fresh build (RunOne).
func (j Job) program() *isa.Program {
	if j.row != nil {
		return j.row.program()
	}
	return buildProgram(j.Spec, j.Opt.Scale)
}
