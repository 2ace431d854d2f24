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

import "sync"

// Pool lends slices of T. The zero value is ready to use and safe for
// concurrent use; declare one per element type at package level.
type Pool[T any] struct {
	byLen sync.Map // int → *sync.Pool of *[]T
}

func (p *Pool[T]) class(n int) *sync.Pool {
	if c, ok := p.byLen.Load(n); ok {
		return c.(*sync.Pool)
	}
	c, _ := p.byLen.LoadOrStore(n, new(sync.Pool))
	return c.(*sync.Pool)
}

// Get returns a zeroed slice of length n.
func (p *Pool[T]) Get(n int) []T {
	if s, ok := p.class(n).Get().(*[]T); ok {
		return *s
	}
	return make([]T, n)
}

// Put zeroes s and hands it back. The caller must hold no other reference
// to it.
func (p *Pool[T]) Put(s []T) {
	if len(s) > 0 {
		clear(s)
		p.class(len(s)).Put(&s)
	}
}
