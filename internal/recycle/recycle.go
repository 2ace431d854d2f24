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
