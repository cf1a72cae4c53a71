package sim

// Event is a scheduled callback. Events are ordered by (at, seq) so that
// two events at the same instant fire in scheduling order, which keeps
// runs deterministic. Event objects are owned and recycled by the
// engine's free list; user code holds EventRef handles instead of bare
// pointers so a recycled object can never be cancelled by a stale
// handle.
type Event struct {
	at     Time
	fn     func()
	seq    uint64
	gen    uint64 // bumped every time the object is released for reuse
	period Time   // if > 0 the engine re-arms the event after it fires
	index  int32  // heap index; -1 when not queued
}

// EventRef is a generation-stamped handle to a scheduled event. The
// zero EventRef is valid and behaves as an already-cancelled event, so
// fields of type EventRef need no initialisation and Engine.Cancel
// accepts them safely. Once the event fires (one-shot) or is cancelled,
// the handle goes stale and every further operation is a no-op — even
// if the engine has recycled the underlying object for a new event.
type EventRef struct {
	ev  *Event
	gen uint64
}

// Cancelled reports whether the handle no longer addresses a live
// event: a zero handle, a fired one-shot, or a cancelled event.
func (r EventRef) Cancelled() bool { return r.ev == nil || r.ev.gen != r.gen }

// eventLess orders events by (at, seq): earliest first, scheduling
// order breaking ties.
func eventLess(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is an index-tracked 4-ary min-heap of *Event keyed by
// (at, seq). It replaces container/heap on the engine's hot path: no
// interface{} boxing on push/pop, sift loops specialized to the event
// comparison, and a wider node fan-out that roughly halves tree depth
// for the queue sizes simulations reach (hundreds to low thousands of
// pending events).
type eventQueue struct {
	a []*Event
}

func (q *eventQueue) len() int { return len(q.a) }

// min returns the earliest event without removing it, or nil when empty.
func (q *eventQueue) min() *Event {
	if len(q.a) == 0 {
		return nil
	}
	return q.a[0]
}

func (q *eventQueue) push(ev *Event) {
	q.a = append(q.a, ev)
	q.siftUp(len(q.a) - 1)
}

// pop removes and returns the earliest event, or nil when empty.
func (q *eventQueue) pop() *Event {
	if len(q.a) == 0 {
		return nil
	}
	ev := q.a[0]
	last := len(q.a) - 1
	q.a[0] = q.a[last]
	q.a[last] = nil
	q.a = q.a[:last]
	if last > 0 {
		q.siftDown(0)
	}
	ev.index = -1
	return ev
}

// remove deletes the event at heap index i.
func (q *eventQueue) remove(i int) {
	ev := q.a[i]
	last := len(q.a) - 1
	q.a[i] = q.a[last]
	q.a[last] = nil
	q.a = q.a[:last]
	if i < last {
		q.siftDown(i)
		q.siftUp(i)
	}
	ev.index = -1
}

func (q *eventQueue) siftUp(i int) {
	ev := q.a[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, q.a[p]) {
			break
		}
		q.a[i] = q.a[p]
		q.a[i].index = int32(i)
		i = p
	}
	q.a[i] = ev
	ev.index = int32(i)
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.a)
	ev := q.a[i]
	for {
		c := i<<2 + 1 // first child
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(q.a[j], q.a[m]) {
				m = j
			}
		}
		if !eventLess(q.a[m], ev) {
			break
		}
		q.a[i] = q.a[m]
		q.a[i].index = int32(i)
		i = m
	}
	q.a[i] = ev
	ev.index = int32(i)
}
