package guestsync

import (
	"slices"

	"repro/internal/guest"
)

// waitList is a FIFO of waiters that reuses its storage: pop shifts the
// rest down and clears the freed slot. A wake-all detaches the list
// with take before waking anyone, because a woken task can re-enter the
// primitive synchronously (a wakeup may dispatch it at once, and a
// zero-length step goes straight back into the same Wait); its new
// entry then lands in the spare buffer, never in the list being woken.
// recycle hands the woken list back as the next spare.
type waitList[T any] struct {
	items []T
	spare []T
}

func (l *waitList[T]) len() int { return len(l.items) }

func (l *waitList[T]) push(x T) { l.items = append(l.items, x) }

// pop removes and returns the front waiter; the list must be non-empty.
func (l *waitList[T]) pop() T {
	x := l.items[0]
	l.items = slices.Delete(l.items, 0, 1)
	return x
}

// take detaches every waiter; pass the result to recycle once all of
// them are woken.
func (l *waitList[T]) take() []T {
	ws := l.items
	l.items, l.spare = l.spare[:0], nil
	return ws
}

// recycle clears a list returned by take and keeps it as the spare.
func (l *waitList[T]) recycle(ws []T) {
	clear(ws)
	l.spare = ws[:0]
}

// removeTask deletes t from ts in place (keeping order), clearing the
// freed slot; ts is returned unchanged when t is absent.
func removeTask(ts []*guest.Task, t *guest.Task) []*guest.Task {
	if i := slices.Index(ts, t); i >= 0 {
		return slices.Delete(ts, i, i+1)
	}
	return ts
}
