// Package checkpoint implements the versioned, content-addressed snapshot
// format the simulator uses to fast-forward figure runs: a Snapshot is an
// ordered set of named sections, each a flat little-endian byte payload
// produced by a component's Save method and consumed by its Restore.
//
// Key types:
//
//   - Snapshot: the container. Sections are created with Section (write
//     side) and read back with Open. Encode/Decode give the canonical byte
//     form; Hash is the SHA-256 of that form, so two snapshots with equal
//     state have equal hashes (every saver serialises maps in sorted order
//     to keep the encoding canonical).
//   - Writer / Reader: fixed-width primitive codecs. Readers carry a sticky
//     error; a Restore implementation reads unconditionally and returns
//     r.Err() once at the end. Writers append, so a Save implementation
//     whose payload is large reserves, then fills: it calls Writer.Grow
//     with the size its geometry implies before writing the first field
//     (cache arrays, predictor tables, physical frames, the hierarchy's
//     "hier" section). A buffer left to regrow as fields are appended
//     costs several times the snapshot's size in garbage per checkpoint;
//     TestCheckpointAllocatesAboutItsSize in internal/sim holds a whole
//     machine's checkpoint to 1.5x its encoding. Grow changes capacity
//     only — never a byte of the encoding.
//   - Store: a content-addressed directory of encoded snapshots
//     (<hash>.snap), with human-opaque ref files mapping an input key — the
//     (workload, scale, cores, warm-up) tuple that produced a snapshot — to
//     its content hash, so later runs resolve a snapshot without
//     re-simulating the warm-up that built it.
//
// Invariants:
//
//   - The format is versioned (FormatVersion); Decode rejects other
//     versions rather than guessing.
//   - Section names are unique within a snapshot and iteration order is
//     insertion order; Encode is therefore deterministic given
//     deterministic savers.
//   - checkpoint sits below every simulated component: it imports nothing
//     from the simulator, and everything that owns machine state imports
//     it.
package checkpoint
