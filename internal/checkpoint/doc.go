// Package checkpoint implements the versioned snapshot format the
// simulator uses to fast-forward figure runs, and the stores that keep
// snapshots: a Snapshot is an ordered set of named sections, each a flat
// little-endian byte payload produced by a component's Save method and
// consumed by its Restore.
//
// Key types:
//
//   - Snapshot: the container. Sections are created with Section (write
//     side) and read back with Open. Encode/Decode give the canonical byte
//     form; Hash is the SHA-256 of that form, so two snapshots with equal
//     state have equal hashes (every saver serialises maps in sorted order
//     and tables in index order to keep the encoding canonical).
//   - Writer / Reader: fixed-width primitive codecs. Readers carry a sticky
//     error; a Restore implementation reads unconditionally and returns
//     r.Err() once at the end. Writers append, so every section reserves
//     exactly, then fills: each component has a SaveSize that says how
//     many bytes its Save will write, and the owner of a section (the
//     hierarchy for "hier", a port for "port<i>", a core for "core<i>",
//     the system for "machine", physical memory for "phys") calls
//     Writer.Grow once with the sum before the first field goes in. A
//     buffer left to regrow as fields are appended costs several times
//     the snapshot's size in garbage per checkpoint;
//     TestCheckpointAllocatesAboutItsSize in internal/sim holds a whole
//     machine's checkpoint to 1.5x its encoding (it measures 1.07x). Grow
//     changes capacity only — never a byte of the encoding.
//   - Sparse tables: a structure that is mostly empty (cache arrays, TLBs,
//     the prefetcher table, the predictor's BTB and local-history table)
//     writes its geometry, its tick and statistics, a count, and then
//     only the valid — or, where there is no valid bit, non-zero —
//     entries, each prefixed by its ascending index. Save writes it
//     through a TableWriter (Writer.Table), which fills the count in
//     after the one pass over the structure. Restore clears the
//     structure and reads it through a TableReader (Reader.Table), which
//     fails the reader on a count above the capacity and on an index out
//     of range or not strictly above its predecessor, so a loop is
//     bounded by the structure it fills and no index from a file reaches
//     an array unchecked; an entry saved in an invalid state is rejected
//     too. An
//     entry that is not written is one nothing reads, so "canonical"
//     means: equal valid contents, equal bytes. Small, densely used
//     tables (2-bit counters, the RAS, DRAM banks) stay dense, written
//     through Writer.Raw in one loop.
//   - Snapshot.WriteTo streams the canonical form from the section
//     buffers; Encode, Hash, Store.Put and Store.Save all go through it,
//     so hashing and storing a snapshot never builds a second copy of the
//     image.
//   - Store: warm snapshots content-addressed (<hash>.snap, Put/Load),
//     with ref files mapping an input key — the (workload, scale,
//     warm-up) tuple that built a snapshot — to its hash (Link/Resolve),
//     so later runs skip the warm-up; and mid-run checkpoint chains.
//   - ChainStore (Save, Latest, Drop), implemented by Store, HTTPStore
//     (the client of StoreHandler) and Mirror: a chain is two slots, and
//     checkpoint ordinal g overwrites slot g mod 2 in place with its
//     ordinal, length and SHA-256, then the image. Latest returns the
//     highest ordinal that checks out, so a slot torn by a crash falls
//     back to the checkpoint before it.
//
// Invariants:
//
//   - The format is versioned (FormatVersion); Decode rejects other
//     versions rather than guessing.
//   - Nothing read from a store or the network is trusted: a .snap must
//     hash to its name, a slot's image to its header's hash, and uploads
//     are re-hashed before they are stored.
//   - Section names are unique within a snapshot and iteration order is
//     insertion order; Encode is therefore deterministic given
//     deterministic savers.
//   - checkpoint sits below every simulated component: it imports nothing
//     from the simulator, and everything that owns machine state imports
//     it.
package checkpoint
