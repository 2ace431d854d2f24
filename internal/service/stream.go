package service

// SSE fan-out that scales to many watchers per job. The old design
// retained every progress frame per job (unbounded) and pushed frames
// into one buffered channel per subscriber (O(subscribers) memory per
// frame, history replayed per attach). This one is pull-based:
//
//   - One bounded ring of recent frames per job. Publishing appends to
//     the ring and pokes each subscriber with a 1-slot signal — the
//     publisher never blocks on a slow consumer and never copies frames
//     per subscriber.
//   - Each subscriber reads the shared ring at its own cursor. Every
//     frame carries a monotonically increasing SSE id, so a client that
//     was disconnected (including deliberately, by the per-write
//     deadline that sheds dead or too-slow consumers) reconnects with
//     Last-Event-ID and resumes from its cursor.
//   - A consumer that falls further behind than the ring holds simply
//     continues from the oldest retained frame: progress frames are
//     advisory, the result is authoritative, and a done job's complete
//     per-cell sequence is synthesized from the stored result anyway.

// streamEvent is one SSE frame: its id (monotonic per job, never reset
// across resumed attempts so Last-Event-ID stays unambiguous), an event
// name and a JSON payload.
type streamEvent struct {
	id   uint64
	name string
	data []byte
}

// eventRing is a fixed-capacity ring of the most recent frames.
type eventRing struct {
	buf  []streamEvent
	next int // index the next append writes
	n    int // live frames (≤ cap)
}

func newEventRing(capacity int) *eventRing {
	return &eventRing{buf: make([]streamEvent, capacity)}
}

// append records a frame, evicting the oldest when full.
func (r *eventRing) append(ev streamEvent) {
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// since returns (a copy of) every retained frame with id > cursor, in
// publication order.
func (r *eventRing) since(cursor uint64) []streamEvent {
	if r.n == 0 {
		return nil
	}
	var out []streamEvent
	start := (r.next - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		ev := r.buf[(start+i)%len(r.buf)]
		if ev.id > cursor {
			out = append(out, ev)
		}
	}
	return out
}

// clear drops every retained frame (ids keep counting from where they
// were: a resumed attempt's frames must stay distinguishable from the
// preempted attempt's for Last-Event-ID resumption).
func (r *eventRing) clear() {
	r.n = 0
	r.next = 0
}

// subscriber is one attached SSE consumer: a 1-slot wakeup signal. The
// frames themselves live in the job's ring; the subscriber tracks its
// own cursor in the HTTP handler.
type subscriber struct {
	wake chan struct{}
}

// poke wakes the subscriber without ever blocking the publisher.
func (s *subscriber) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}
