package workload

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestReqQueueMatchesSlice drives the open server's request FIFO with a
// random push/pop mix, including long runs that fill the array and
// force the live window back to its front, and checks it against a
// plain slice: same order, same length, popped slots cleared, and
// drain handing back exactly the waiting requests.
func TestReqQueueMatchesSlice(t *testing.T) {
	rng := sim.NewRNG(7)
	var q reqQueue
	var model []Request
	next := sim.Time(0)
	for op := 0; op < 20000; op++ {
		if len(model) == 0 || rng.Intn(100) < 52 {
			next++
			q.push(Request{Arrival: next})
			model = append(model, Request{Arrival: next})
		} else {
			got, want := q.pop(), model[0]
			model = model[1:]
			if got != want {
				t.Fatalf("op %d: popped %v, want %v", op, got.Arrival, want.Arrival)
			}
			for _, r := range q.buf[:q.head] {
				if r != (Request{}) {
					t.Fatalf("op %d: a popped slot still holds %v", op, r.Arrival)
				}
			}
		}
		if q.len() != len(model) {
			t.Fatalf("op %d: len %d, want %d", op, q.len(), len(model))
		}
	}
	if got := q.drain(); !slices.Equal(got, model) || q.len() != 0 {
		t.Fatalf("drain returned %d requests (queue left %d), want %d", len(got), q.len(), len(model))
	}
}
