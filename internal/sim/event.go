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

// eventQueue holds the pending events sorted by (at, seq), earliest
// last, so the next event is read and removed at the end of the slice
// with no comparisons. Simulations keep each engine's queue shallow (a
// mean of 6-30 and at most 47 pending events across the shipped
// experiments) and most new events are near-term, so an insertion scan
// from the earliest end is short and its branches predictable. At
// these depths it beats a heap's sift loops; BenchmarkEngineDepth,
// whose uniformly random delays are the scan's worst case, puts the
// crossover near 48 standing events. The key (at, seq) is unique, so
// the pop order is the same as any other correct priority queue's.
type eventQueue struct {
	a []*Event
}

func (q *eventQueue) len() int { return len(q.a) }

// min returns the earliest event without removing it, or nil when empty.
func (q *eventQueue) min() *Event {
	if len(q.a) == 0 {
		return nil
	}
	return q.a[len(q.a)-1]
}

// push inserts ev, shifting the earlier events one slot towards the end.
// A plain loop, not copy: the shift is usually a few slots, too short to
// pay for a bulk move.
func (q *eventQueue) push(ev *Event) {
	q.a = append(q.a, ev)
	i := len(q.a) - 1
	for ; i > 0 && eventLess(q.a[i-1], ev); i-- {
		q.a[i] = q.a[i-1]
	}
	q.a[i] = ev
}

// pop removes and returns the earliest event, or nil when empty. The
// vacated slot keeps its pointer: it only ever addresses an object the
// engine owns anyway, and the next push overwrites it.
func (q *eventQueue) pop() *Event {
	n := len(q.a) - 1
	if n < 0 {
		return nil
	}
	ev := q.a[n]
	q.a = q.a[:n]
	return ev
}

// remove deletes ev, which must be queued. Walking down from the
// earliest end, each event moves one slot down until the last one moved
// overwrites ev's slot, so the search and the gap-closing shift are one
// pass.
func (q *eventQueue) remove(ev *Event) {
	n := len(q.a) - 1
	carry := q.a[n]
	for i := n; carry != ev; {
		i--
		carry, q.a[i] = q.a[i], carry
	}
	q.a = q.a[:n]
}
