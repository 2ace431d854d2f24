// Package checkpoint implements the versioned snapshot format the
// simulator uses to fast-forward figure runs, and the stores that keep
// snapshots: a Snapshot is an ordered set of named sections, each a flat
// little-endian byte payload that one component method walks.
//
// Key types:
//
//   - Snapshot: the container. Put adds a section, Get loads one and
//     fails when the walk leaves bytes of the payload unread. A Row names
//     one section and its walk; an owner of state lists one row per
//     structure it holds, and sim.System puts or gets every row in one
//     loop. Encode/Decode give the canonical byte form; Hash
//     is the SHA-256 of that form, so two snapshots with equal state have
//     equal hashes (every walk saves maps in sorted key order and tables
//     in index order to keep the encoding canonical). Reset empties a
//     snapshot for refilling and keeps its section buffers: a Put of the
//     name a position held before saves into that position's buffer. The
//     one who created a snapshot owns it; a mid-run checkpointing run
//     (sim.System.RunUntilHaltCkpt) refills one image at every checkpoint
//     and lends it to its sink until the sink returns, so a sink that
//     keeps an image keeps a copy (Decode of its Encode). Images taken
//     one at a time (Checkpoint, CheckpointAt, warm snapshots) are new
//     and live as long as their holder keeps them.
//   - State: one section's payload in one of three modes — measuring,
//     saving, loading. A component spells its layout once, as a method
//     (Checkpoint, by convention) that hands every field to the State's
//     primitives in order (U64, U32, U8, Bool, Raw, and Until for a
//     busy-until cycle, saved as the wait left); what only a load does
//     — geometry and owner-range checks, clearing a table before filling
//     it — sits under Loading. Put runs the walk measuring, reserves
//     exactly the measured bytes, and runs it again saving, so a new
//     snapshot allocates about its own size and no buffer regrows; a
//     refilled one reuses the section's buffer, grown amortised when the
//     section outgrows it, so refilling allocates nothing once the image
//     has reached its size. A walk that saves another size than it
//     measured panics.
//     TestCheckpointAllocatesAboutItsSize in internal/sim holds a whole
//     machine's checkpoint to 1.5x its encoding (it measures 1.11x to
//     1.23x, the rows the machine builds at its first checkpoint
//     included; Grow reserves a new image's section list and index at the
//     row count up front). A
//     load ends at its first failure: a read past the payload's end,
//     Failf or Fail do not return, and Get reports the error, so a walk
//     checks nothing after each field. The primitives are inlined into
//     the walks (go build -gcflags=-m=2 ./internal/checkpoint), which make
//     one call per field of every entry a structure holds.
//   - Sparse tables: a structure that is mostly empty (cache arrays, TLBs,
//     the prefetcher table, the predictor's BTB and local-history table)
//     walks its geometry, a count, and then only the valid — or, where
//     there is no valid bit, non-zero — entries, each prefixed by its
//     ascending index, through a Table (State.Table, First, More, Next,
//     Holds, End), which also advances the loop. No statistics and no LRU
//     tick: an entry saves its recency rank, not its stamp. Saving visits
//     every index and fills the count in at End; loading visits only the
//     indices the payload holds. Measuring walks the first held entry and
//     counts the rest at its size from the number the structure reports
//     holding, so it costs a count of the structure, not a walk of it. Loading
//     clears the structure first, then fails on a count above the
//     capacity and on an index out of range or not strictly above its
//     predecessor, so a loop is bounded by the structure it fills and no
//     index from a file reaches an array unchecked; an entry saved in an
//     invalid state is rejected by the walk too. An entry that is not
//     written is one nothing reads, so "canonical" means: equal valid
//     contents, equal bytes. Small, densely used tables (2-bit counters,
//     the RAS, DRAM banks) stay dense, walked through Raw in one loop.
//   - Map walks a map keyed by an address (physical frames, the SafeBet
//     footprints) as a count and its
//     entries: saving in ascending key order through one sort buffer per
//     section, measuring one entry without sorting (counting the entries
//     a filter keeps in the same pass), loading into the cleared map.
//   - Snapshot.WriteTo streams the canonical form from the section
//     buffers; Encode, Hash, Store.Put and Store.Save all go through it,
//     so hashing and storing a snapshot never builds a second copy of the
//     image. Store.Save writes through one pooled 16 KiB buffer, so a
//     section's header and payload do not each cost a system call.
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
//     deterministic walks.
//   - checkpoint sits below every simulated component: it imports nothing
//     from the simulator, and everything that owns machine state imports
//     it.
package checkpoint
