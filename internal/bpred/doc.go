// Package bpred implements the branch prediction hardware from the
// paper's Table 1: a tournament predictor (2048-entry local history,
// 8192-entry global, 2048-entry chooser), a 4096-entry branch target
// buffer and a 16-entry return address stack.
//
// Spectre-style attacks depend on an attacker being able to mistrain
// these structures, so they are modelled faithfully: saturating-counter
// tables indexed exactly as classic tournament predictors are, a tagged
// direct-mapped BTB that victim and attacker branches can alias in, and a
// RAS with checkpoint/restore for squashes.
//
// Key types:
//
//   - Predictor: the combined direction predictor, BTB and RAS. Its
//     tables are borrowed from internal/recycle, zeroed, and handed back
//     by Release, after which any prediction or update panics.
//   - Prediction: the fetch-stage output, carrying the global-history and
//     RAS-top snapshots that Update/Squash use to reconstruct or restore
//     fetch-time state.
//
// Invariants:
//
//   - Global history is shifted speculatively at predict time; Squash
//     restores the snapshot and shifts in the actual outcome, so history
//     always reflects the committed path after recovery.
//   - The Warm* methods train identically to a sequential predict/update
//     pair (no stats, no speculation); the checkpoint warm-up relies on
//     this equivalence, and Checkpoint round-trips every table bit.
//   - FlushBTB models the Arm v8.5 / eIBRS domain isolation of §4.9.
package bpred
