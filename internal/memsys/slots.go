package memsys

// slots parks values under small integer handles: a put returns the slot
// number that travels as a scheduled event's argument (or an MSHR
// waiter), and the take at delivery hands the value back and frees the
// slot. Freed slots are reused last-freed-first, so a steady state stops
// growing the backing array, and a take zeroes its slot, so nothing taken
// (a closure above all) stays reachable from the port. Everything a port
// parks under an event argument lives in one of these, and the quiescence
// predicate reads their live counts.
type slots[T any] struct {
	vals []T
	free []int32
}

// put parks v and returns its slot.
func (s *slots[T]) put(v T) int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.vals[slot] = v
		return slot
	}
	s.vals = append(s.vals, v)
	return int32(len(s.vals) - 1)
}

// take returns the value parked in slot and frees the slot.
func (s *slots[T]) take(slot int32) T {
	v := s.vals[slot]
	var zero T
	s.vals[slot] = zero
	s.free = append(s.free, slot)
	return v
}

// at is the value parked in slot, in place.
func (s *slots[T]) at(slot int32) *T { return &s.vals[slot] }

// live counts the values parked and not yet taken.
func (s *slots[T]) live() int { return len(s.vals) - len(s.free) }
