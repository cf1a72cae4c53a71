package sim

import (
	"container/heap"
	"testing"
)

// Differential test: the sorted-slice eventQueue must produce a
// bit-identical pop sequence to the original container/heap binary
// min-heap under any interleaving of push, pop, and remove. The
// reference implementation below is the pre-overhaul heap, kept
// verbatim (modulo field renames) as the ordering oracle.

type refEvent struct {
	at    Time
	seq   uint64
	id    int
	index int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// heapOp is one scripted operation: push a new event at time at, pop
// the minimum, or remove a previously pushed (still queued) event.
type heapOp struct {
	kind int // 0 = push, 1 = pop, 2 = remove
	at   Time
	pick uint64 // selects which live event to remove
}

// runDifferential drives both heaps through ops and asserts identical
// pop sequences (by insertion id).
func runDifferential(t *testing.T, ops []heapOp) {
	t.Helper()
	var newQ eventQueue
	var refQ refQueue
	var seq uint64
	nextID := 0
	newLive := map[int]*Event{}
	refLive := map[int]*refEvent{}
	liveIDs := []int{}
	var popsNew, popsRef []int
	idOf := map[*Event]int{}

	for _, op := range ops {
		switch op.kind {
		case 0: // push
			id := nextID
			nextID++
			ne := &Event{at: op.at, seq: seq}
			re := &refEvent{at: op.at, seq: seq, id: id}
			seq++
			newQ.push(ne)
			heap.Push(&refQ, re)
			newLive[id] = ne
			refLive[id] = re
			idOf[ne] = id
			liveIDs = append(liveIDs, id)
		case 1: // pop
			ne := newQ.pop()
			if refQ.Len() == 0 {
				if ne != nil {
					t.Fatalf("new heap popped %v while reference is empty", ne.at)
				}
				continue
			}
			re := heap.Pop(&refQ).(*refEvent)
			if ne == nil {
				t.Fatalf("new heap empty while reference has %d events", refQ.Len()+1)
			}
			popsNew = append(popsNew, idOf[ne])
			popsRef = append(popsRef, re.id)
			removeID(&liveIDs, idOf[ne])
			delete(newLive, idOf[ne])
			delete(refLive, re.id)
		case 2: // remove
			if len(liveIDs) == 0 {
				continue
			}
			id := liveIDs[op.pick%uint64(len(liveIDs))]
			ne, re := newLive[id], refLive[id]
			newQ.remove(ne)
			heap.Remove(&refQ, re.index)
			removeID(&liveIDs, id)
			delete(newLive, id)
			delete(refLive, id)
		}
		// The slice must stay sorted, earliest last, through the churn.
		for i := 1; i < len(newQ.a); i++ {
			if !eventLess(newQ.a[i], newQ.a[i-1]) {
				t.Fatalf("queue unsorted at slot %d: (%v, %d) before (%v, %d)",
					i, newQ.a[i-1].at, newQ.a[i-1].seq, newQ.a[i].at, newQ.a[i].seq)
			}
		}
	}
	// Drain both completely.
	for {
		ne := newQ.pop()
		if ne == nil {
			break
		}
		popsNew = append(popsNew, idOf[ne])
	}
	for refQ.Len() > 0 {
		popsRef = append(popsRef, heap.Pop(&refQ).(*refEvent).id)
	}
	if len(popsNew) != len(popsRef) {
		t.Fatalf("pop counts differ: new %d, ref %d", len(popsNew), len(popsRef))
	}
	for i := range popsNew {
		if popsNew[i] != popsRef[i] {
			t.Fatalf("pop %d differs: new id %d, ref id %d", i, popsNew[i], popsRef[i])
		}
	}
}

func removeID(ids *[]int, id int) {
	for i, v := range *ids {
		if v == id {
			*ids = append((*ids)[:i], (*ids)[i+1:]...)
			return
		}
	}
}

// TestHeapDifferentialRandom runs long randomized op sequences with
// heavy timestamp collisions (small time range forces tie-breaks
// through seq) against the container/heap oracle.
func TestHeapDifferentialRandom(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := NewRNG(uint64(trial) * 7919)
		ops := make([]heapOp, 0, 2000)
		for i := 0; i < 2000; i++ {
			r := rng.Intn(10)
			switch {
			case r < 5:
				// Small range → many equal timestamps → seq tie-breaks.
				ops = append(ops, heapOp{kind: 0, at: Time(rng.Intn(64))})
			case r < 8:
				ops = append(ops, heapOp{kind: 1})
			default:
				ops = append(ops, heapOp{kind: 2, pick: uint64(rng.Intn(1 << 16))})
			}
		}
		runDifferential(t, ops)
	}
}

// TestHeapDifferentialAdversarial exercises degenerate shapes: strictly
// ascending, strictly descending, and all-identical timestamps, with
// interior removals.
func TestHeapDifferentialAdversarial(t *testing.T) {
	var ops []heapOp
	for i := 0; i < 300; i++ {
		ops = append(ops, heapOp{kind: 0, at: Time(i)})
	}
	for i := 0; i < 100; i++ {
		ops = append(ops, heapOp{kind: 2, pick: uint64(i * 31)})
	}
	runDifferential(t, ops)

	ops = ops[:0]
	for i := 0; i < 300; i++ {
		ops = append(ops, heapOp{kind: 0, at: Time(300 - i)})
	}
	for i := 0; i < 150; i++ {
		ops = append(ops, heapOp{kind: 1})
	}
	runDifferential(t, ops)

	ops = ops[:0]
	for i := 0; i < 300; i++ {
		ops = append(ops, heapOp{kind: 0, at: 7})
		if i%3 == 0 {
			ops = append(ops, heapOp{kind: 2, pick: uint64(i)})
		}
	}
	runDifferential(t, ops)
}
