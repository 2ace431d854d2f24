// Package recycle lends out the geometry-sized tables a simulated machine
// is built from — cache-line arrays, physical frames, predictor tables —
// and takes them back when the machine is released, so a sweep of
// short-lived cells stops allocating (and the collector stops tracing)
// the same megabyte of tables per cell.
//
// The contract is the one make gives: Get returns a slice of exactly the
// requested length, every element zero. A returned table is zeroed on its
// way back in, so a component built on a recycled table and one built on
// a fresh one are the same value, no component defines its power-on state
// twice, and an idle table points at nothing — a pooled instruction window
// or event slab keeps no released machine reachable. Tables are kept per
// length; a length nobody has returned is a miss and is made, never
// resized from another. What is idle is held by sync.Pool, so the
// collector frees it and a Put that is never made costs what it always
// did: the table becomes garbage.
package recycle
