package guest

import (
	"slices"

	"repro/internal/sim"
)

// runQueue is a CFS-like ready queue ordered by task vruntime. Sizes
// here are tiny (a handful of tasks), so an ordered slice is both
// simple and fast. Removals shift the tail down and clear the freed
// slot, so the backing array is reused for the queue's lifetime.
type runQueue struct {
	tasks       []*Task
	minVruntime sim.Time
}

// Len returns the number of queued (ready, not running) tasks.
func (rq *runQueue) Len() int { return len(rq.tasks) }

// Enqueue inserts t in vruntime order.
func (rq *runQueue) Enqueue(t *Task) {
	pos := len(rq.tasks)
	for i, q := range rq.tasks {
		if t.vruntime < q.vruntime {
			pos = i
			break
		}
	}
	rq.tasks = append(rq.tasks, nil)
	copy(rq.tasks[pos+1:], rq.tasks[pos:])
	rq.tasks[pos] = t
}

// PickNext removes and returns the task with the smallest vruntime.
func (rq *runQueue) PickNext() *Task {
	if len(rq.tasks) == 0 {
		return nil
	}
	t := rq.tasks[0]
	rq.tasks = slices.Delete(rq.tasks, 0, 1)
	rq.updateMin(t.vruntime)
	return t
}

// Peek returns the lowest-vruntime task without removing it.
func (rq *runQueue) Peek() *Task {
	if len(rq.tasks) == 0 {
		return nil
	}
	return rq.tasks[0]
}

// Remove deletes t from the queue, reporting whether it was present.
func (rq *runQueue) Remove(t *Task) bool {
	for i, q := range rq.tasks {
		if q == t {
			rq.tasks = slices.Delete(rq.tasks, i, i+1)
			return true
		}
	}
	return false
}

// Tasks returns the queued tasks in vruntime order. The caller must not
// mutate the returned slice.
func (rq *runQueue) Tasks() []*Task { return rq.tasks }

func (rq *runQueue) updateMin(v sim.Time) {
	if v > rq.minVruntime {
		rq.minVruntime = v
	}
}
