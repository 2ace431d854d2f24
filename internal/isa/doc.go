// Package isa defines the small RISC-style instruction set the simulator
// executes. Workloads and attack programs are expressed in this ISA; the
// out-of-order core in internal/cpu provides its timing and speculative
// behaviour, while Exec in this package provides its functional semantics
// (used both by the pipeline's execute stage and by the checkpoint
// warm-up's architectural fast-forward).
//
// Key types:
//
//   - Inst / Op / Class: one static instruction, its opcode and the class
//     the pipeline dispatches on (ALU, load/store/AMO, branch, jump,
//     system).
//   - StaticInst: a predecoded instruction — the Class/SrcRegs/WritesReg
//     switches resolved once per program into plain fields, because the
//     hot path consults them millions of times per static instruction.
//   - Program / Builder: an assembled text segment plus data segments and
//     labels; Builder is the tiny assembler workloads and attacks use, and
//     Build is the only way to make a Program (it predecodes the text).
//   - DataSegment: a named region of the image, either initialised (its
//     bytes are part of the image) or zero-fill (declared by length only,
//     like ELF .bss). Builder.Alloc and ZeroSegment declare zero-fill
//     segments; AllocInit and Segment carry bytes. Len is the one length
//     accessor for both kinds.
//   - ExecResult / Exec: the pure functional semantics of one instruction
//     given its operand values.
//
// Invariants:
//
//   - A Program is immutable once built. No core, loader or warm-up
//     executor writes its text, data segments or static table, so one
//     Program may be shared by machines running on different goroutines
//     (a figure row's schemes all run one).
//   - A zero-fill segment and a segment initialised with the same number
//     of zero bytes are the same program: the loader backs neither with
//     data it does not have to store (see the zero-fill contract in
//     internal/mem), so an image costs what it initialises to something
//     other than zero, and nothing may tell the two apart — not cycles,
//     not counters, not snapshot bytes.
//   - All instructions are InstBytes (4) long; text begins at TextBase and
//     instruction addresses are always aligned.
//   - Register x0 (Zero) reads zero and ignores writes; no path may write
//     it.
//   - Exec is pure: memory values are supplied by the caller (the core
//     reads them after the access; the warm-up executor reads physical
//     memory directly), which is what keeps functional and detailed
//     execution architecturally identical.
//
// The ISA is deliberately minimal but covers everything the paper's
// evaluation needs: integer and floating-point arithmetic (with
// multi-cycle multiply/divide classes), loads and stores, conditional
// branches, indirect jumps, call/return, an atomic compare-and-swap for
// Parsec-style locking, syscalls (which enter the kernel and, under
// MuonTrap, flush the filter caches), a speculation barrier and an
// explicit filter-flush instruction for sandbox boundaries (paper §4.9).
package isa
