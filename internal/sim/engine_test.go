package sim

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	eng := NewEngine()
	var got []Time
	for _, d := range []Time{5, 1, 3, 2, 4} {
		eng.At(d, func() { got = append(got, d) })
	}
	if err := eng.Run(10); err != nil && !errors.Is(err, ErrDeadlock) {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestSameInstantFiresInScheduleOrder(t *testing.T) {
	eng := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		eng.At(7, func() { got = append(got, i) })
	}
	_ = eng.Run(10)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken at %d: %v", i, got)
		}
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	eng := NewEngine()
	fired := false
	ev := eng.At(5, func() { fired = true })
	eng.At(1, func() { eng.Cancel(ev) })
	_ = eng.Run(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
}

func TestCancelIsIdempotentAndNilSafe(t *testing.T) {
	eng := NewEngine()
	ev := eng.At(5, func() {})
	eng.Cancel(ev)
	eng.Cancel(ev)
	eng.Cancel(EventRef{})
}

// TestStaleHandleCannotCancelRecycledEvent pins down the safety
// contract of the free-list pool: once an event fires, its handle goes
// stale, and cancelling it must not touch whatever event has since
// reused the underlying object.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	eng := NewEngine()
	stale := eng.At(1, func() {})
	eng.Step() // fires the first event; its object returns to the free list
	fired := false
	fresh := eng.At(5, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Skip("pool did not reuse the object; nothing to verify")
	}
	eng.Cancel(stale) // stale generation: must be a no-op
	if fresh.Cancelled() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	_ = eng.Run(10)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestPeriodicEventReArmsAndCancels(t *testing.T) {
	eng := NewEngine()
	count := 0
	ev := eng.Every(10, func() { count++ })
	eng.At(55, func() { eng.Cancel(ev) })
	eng.At(200, func() {})
	_ = eng.Run(200)
	if count != 5 {
		t.Fatalf("periodic fired %d times, want 5 (at 10..50)", count)
	}
}

func TestPeriodicCancelFromOwnCallback(t *testing.T) {
	eng := NewEngine()
	count := 0
	var ev EventRef
	ev = eng.Every(10, func() {
		count++
		if count == 3 {
			eng.Cancel(ev)
		}
	})
	eng.At(100, func() {})
	_ = eng.Run(100)
	if count != 3 {
		t.Fatalf("fired %d, want 3", count)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	eng := NewEngine()
	eng.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic scheduling in the past")
			}
		}()
		eng.At(5, func() {})
	})
	_ = eng.Run(20)
}

func TestRunStopsAtHorizon(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.At(100, func() { fired = true })
	if err := eng.Run(50); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if eng.Now() != 50 {
		t.Fatalf("clock at %v, want 50", eng.Now())
	}
	// Continuing past the horizon fires it.
	if err := eng.Run(200); err != nil && !errors.Is(err, ErrDeadlock) {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event did not fire on second run")
	}
}

func TestDeadlockReported(t *testing.T) {
	eng := NewEngine()
	eng.At(5, func() {})
	err := eng.Run(100)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestStopEndsRun(t *testing.T) {
	eng := NewEngine()
	count := 0
	eng.Every(1, func() {
		count++
		if count == 7 {
			eng.Stop()
		}
	})
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
}

func TestEventCallbackMayScheduleMore(t *testing.T) {
	eng := NewEngine()
	depth := 0
	var chain func()
	chain = func() {
		depth++
		if depth < 50 {
			eng.After(1, chain)
		}
	}
	eng.After(1, chain)
	_ = eng.Run(1000)
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
	if eng.Now() > 1000 {
		t.Fatalf("clock ran away: %v", eng.Now())
	}
}

// Property: any batch of events fires in nondecreasing time order and
// exactly once.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		eng := NewEngine()
		fired := make(map[int]int)
		var last Time = -1
		ok := true
		for i, d := range delays {
			at := Time(d)
			eng.At(at, func() {
				fired[i]++
				if eng.Now() < last {
					ok = false
				}
				last = eng.Now()
			})
		}
		err := eng.Run(Time(1 << 20))
		if len(delays) > 0 && !errors.Is(err, ErrDeadlock) {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		for _, n := range fired {
			if n != 1 {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset fires exactly the rest.
func TestQuickCancelSubset(t *testing.T) {
	f := func(delays []uint8, mask []bool) bool {
		eng := NewEngine()
		events := make([]EventRef, len(delays))
		fired := make([]bool, len(delays))
		for i, d := range delays {
			events[i] = eng.At(Time(d)+1, func() { fired[i] = true })
		}
		for i := range events {
			if i < len(mask) && mask[i] {
				eng.Cancel(events[i])
			}
		}
		_ = eng.Run(Time(1 << 12))
		for i := range events {
			cancelled := i < len(mask) && mask[i]
			if fired[i] == cancelled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeFormatting(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000µs"},
		{3 * Millisecond, "3.000ms"},
		{Second + Second/2, "1.500s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// floatAppend is Time.Append as it was written before the integer
// path: the float64 quotient in the largest unit, rounded by strconv.
func floatAppend(t Time) string {
	switch {
	case t >= Second:
		return strconv.FormatFloat(t.Seconds(), 'f', 3, 64) + "s"
	case t >= Millisecond:
		return strconv.FormatFloat(t.Milliseconds(), 'f', 3, 64) + "ms"
	case t >= Microsecond:
		return strconv.FormatFloat(t.Microseconds(), 'f', 3, 64) + "µs"
	default:
		return strconv.FormatInt(int64(t), 10) + "ns"
	}
}

// TestTimeAppendMatchesFloat holds the integer rendering to the float
// one at unit edges, on and next to every rounding tie, around the
// switch to the float path, and on random times of every magnitude.
func TestTimeAppendMatchesFloat(t *testing.T) {
	cases := []Time{
		0, 1, 999, 1000, 1001, 999_499, 999_500, 999_501, 999_999, 1_000_000,
		999_999_499, 999_999_500, 999_999_501, 999_999_999, Second,
		Second + 499_999, Second + 500_000, Second + 500_001, 62_500_000 + Second,
		6*Second + 250*Microsecond, 1<<50 - 1, 1 << 50, 1<<50 + 1, math.MaxInt64,
		-1, -Second, math.MinInt64,
	}
	rng := NewRNG(7)
	for i := 0; i < 20000; i++ {
		v := Time(rng.Uint64() >> (1 + i%63))
		step := []Time{1, Microsecond, Millisecond}[i%3]
		cases = append(cases, v, v/step*step+step/2)
	}
	for _, at := range cases {
		if got, want := at.String(), floatAppend(at); got != want {
			t.Errorf("%d ns renders %q, float path %q", int64(at), got, want)
		}
	}
}

func TestOnViolationReportsInsteadOfPanicking(t *testing.T) {
	eng := NewEngine()
	var names, details []string
	eng.OnViolation = func(name, detail string) {
		names = append(names, name)
		details = append(details, detail)
	}
	fired := false
	eng.At(10, func() {
		// Scheduling in the past is clamped to now and still fires.
		eng.At(5, func() { fired = true })
	})
	if ev := eng.Every(0, func() {}); ev != (EventRef{}) {
		t.Fatal("non-positive period returned an event")
	}
	eng.Cancel(EventRef{}) // the zero return must be safe to cancel
	if err := eng.Run(20); err != nil && !errors.Is(err, ErrDeadlock) {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("clamped past event did not fire")
	}
	if len(names) != 2 || names[0] != "non-positive-period" || names[1] != "schedule-in-past" {
		t.Fatalf("violations = %v", names)
	}
	for _, d := range details {
		if d == "" {
			t.Fatal("violation with empty detail")
		}
	}
	// Events carry no names: the details locate the violation by time.
	if !strings.Contains(details[1], "5ns") || !strings.Contains(details[1], "10ns") {
		t.Fatalf("schedule-in-past detail %q lacks the event and current times", details[1])
	}
}
