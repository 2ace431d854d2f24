// Package workload generates the synthetic benchmark kernels that stand
// in for SPEC CPU2006 and Parsec in the evaluation (the paper ran the
// real suites under gem5; the substitution is unvalidated, see ROADMAP.md
// item 7).
// Each benchmark is described by a Spec whose parameters are chosen to
// reproduce the sensitivity the paper reports for that workload: working
// set and access pattern (streaming, strided-conflict, random, pointer
// chase), memory-level parallelism, store intensity, branch behaviour,
// code footprint, and (for Parsec) data sharing and locking.
//
// Key types:
//
//   - Spec: the parameter set for one kernel; SPEC2006() and Parsec()
//     return the two suites, ByName looks a kernel up.
//   - Build: compiles a Spec into an isa.Program at a given scale (trip
//     count multiplier).
//
// Invariants:
//
//   - Build is deterministic: the same (Spec, scale) always produces the
//     same program, which is what lets figure runs and warm snapshots be
//     keyed by (workload name, scale) alone.
//   - Parsec kernels are built for 4 threads entering at Program.Entry
//     with their thread id in X10 and locking through OpAmoCas.
package workload
