// Package mem provides the physical address space (sparse page-frame
// storage with byte-accurate contents) and the DRAM timing model at the
// bottom of the simulated memory hierarchy.
//
// The simulator uses the classic timing/functional split: caches above
// this package carry tags and coherence state only, while actual data
// bytes live here. Attack programs depend on real data flow (a
// speculatively loaded secret byte must steer a second access), so the
// contents are exact.
//
// Key types:
//
//   - Addr / VAddr: physical and virtual byte addresses, with the
//     line/page geometry constants (LineBytes, PageBytes) shared by the
//     whole hierarchy.
//   - Physical: sparse 4KiB-frame memory. Reads of unbacked memory return
//     zeroes; writes allocate frames on demand. Bulk WriteData/ReadData
//     move a frame at a time. Checkpoint elides all-zero frames — semantically
//     invisible — and serialises the rest in frame order, so equal
//     contents always produce equal snapshot bytes. Frames are borrowed
//     from internal/recycle (zeroed on the way out, which is what the
//     zero-fill contract below needs of a new frame) and handed back by
//     Release, and by a loading Checkpoint for the frames it replaces.
//   - DRAM / DRAMConfig: a bank-aware open-row latency model (per-bank row
//     tracking plus a shared data-bus serialisation constraint), DDR3-1600
//     class by default (Table 1).
//
// The zero-fill contract: an unbacked frame and a backed frame holding
// 4096 zero bytes are the same memory. Anyone may rely on unbacked ==
// zero — the program loader (internal/sim) maps zero-fill segments without
// writing them, and WriteData skips an all-zero chunk whose frame is
// unbacked (over a backed frame the zeroes are stored like any data). In
// return, whether a frame exists must never become observable to the
// simulated machine or to anything derived from it: not to timing (DRAM
// and the caches see addresses only), not to a checkpoint (zero frames are
// elided, so snapshot bytes, hashes and cache keys do not depend on it).
// FrameCount exposes it to tests and benchmarks only, as a host-cost
// figure.
//
// Invariants:
//
//   - Multi-byte accesses are little-endian and may straddle frame
//     boundaries.
//   - DRAM.Access only computes timing; it never stores data (data lives
//     in Physical) and the caller schedules its own completion event.
package mem
