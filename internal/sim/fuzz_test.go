package sim

import (
	"encoding/binary"
	"testing"
)

// FuzzEventHeapOrdering drives the event heap with adversarial
// timestamps — negative, zero, duplicate, maximal — and asserts the
// dispatch contract: every scheduled event fires exactly once, virtual
// time never moves backwards, and same-instant events fire in schedule
// order. Past timestamps are absorbed by the OnViolation hook (clamped
// to now) rather than panicking.
func FuzzEventHeapOrdering(f *testing.F) {
	le := binary.LittleEndian
	enc := func(ts ...int64) []byte {
		b := make([]byte, 8*len(ts))
		for i, t := range ts {
			le.PutUint64(b[8*i:], uint64(t))
		}
		return b
	}
	f.Add(enc(5, 1, 3, 2, 4))
	f.Add(enc(7, 7, 7, 7))
	f.Add(enc(0, -1, -100, 50))
	f.Add(enc(1<<62, 1, 1<<62, 2))
	f.Add(enc(-9223372036854775808, 9223372036854775807))
	f.Add(enc())
	f.Add([]byte{1, 2, 3}) // trailing partial timestamp

	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n > 256 {
			n = 256
		}
		eng := NewEngine()
		eng.OnViolation = func(string, string) {}
		fired := make([]int, n)
		order := make([]int, 0, n)
		var lastAt Time = -1 << 62
		for i := 0; i < n; i++ {
			i := i
			at := Time(le.Uint64(data[8*i:]))
			eng.At(at, func() {
				fired[i]++
				order = append(order, i)
				if eng.Now() < lastAt {
					t.Fatalf("time moved backwards: %v after %v", eng.Now(), lastAt)
				}
				lastAt = eng.Now()
			})
		}
		for eng.Step() {
		}
		for i, c := range fired {
			if c != 1 {
				t.Fatalf("event %d fired %d times", i, c)
			}
		}
		// Ties must preserve schedule order: among fired events at the
		// same instant, indices are increasing. All scheduling happened
		// at time zero, so the clamp rule reduces to max(at, 0).
		eff := make([]Time, n)
		for i := 0; i < n; i++ {
			at := Time(le.Uint64(data[8*i:]))
			if at < 0 {
				at = 0
			}
			eff[i] = at
		}
		for k := 1; k < len(order); k++ {
			a, b := order[k-1], order[k]
			if eff[a] == eff[b] && a > b {
				t.Fatalf("tie at %v fired out of schedule order: %d before %d", eff[a], a, b)
			}
		}
	})
}
