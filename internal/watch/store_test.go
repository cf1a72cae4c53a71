package watch

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestSeriesObserveAndRollup(t *testing.T) {
	s := NewSeries(10*sim.Millisecond, 8)
	s.Observe(1*sim.Millisecond, 5)
	s.Observe(9*sim.Millisecond, 3)
	s.Observe(15*sim.Millisecond, 7)

	w, ok := s.WindowAt(0)
	if !ok {
		t.Fatal("window at 0 missing")
	}
	if w.Count != 2 || w.Sum != 8 || w.Min != 3 || w.Max != 5 {
		t.Fatalf("window 0 = %+v", w)
	}
	if w.Mean() != 4 {
		t.Fatalf("mean = %v, want 4", w.Mean())
	}

	all := s.WindowsBetween(0, 20*sim.Millisecond)
	if len(all) != 2 {
		t.Fatalf("windows = %d, want 2", len(all))
	}
	r := s.RollupBetween(0, 20*sim.Millisecond)
	if r.Count != 3 || r.Sum != 15 || r.Min != 3 || r.Max != 7 {
		t.Fatalf("rollup = %+v", r)
	}

	// The window containing `from` is included even when from cuts it.
	mid := s.WindowsBetween(5*sim.Millisecond, 20*sim.Millisecond)
	if len(mid) != 2 {
		t.Fatalf("mid-window range = %d windows, want 2", len(mid))
	}
}

func TestSeriesRingEviction(t *testing.T) {
	s := NewSeries(sim.Millisecond, 4)
	for i := 0; i < 10; i++ {
		s.Observe(sim.Time(i)*sim.Millisecond, float64(i))
	}
	// Depth 4: only windows 6..9 survive.
	if _, ok := s.WindowAt(5 * sim.Millisecond); ok {
		t.Fatal("window 5 should be evicted")
	}
	for i := 6; i < 10; i++ {
		w, ok := s.WindowAt(sim.Time(i) * sim.Millisecond)
		if !ok || w.Sum != float64(i) {
			t.Fatalf("window %d = %+v ok=%v", i, w, ok)
		}
	}
	if got := len(s.WindowsBetween(0, 10*sim.Millisecond)); got != 4 {
		t.Fatalf("surviving windows = %d, want 4", got)
	}
}

// randomWindow builds a window with up to 20 values — the generator
// behind the associativity property test.
func randomWindow(rng *rand.Rand, start sim.Time) Window {
	w := Window{Start: start}
	n := rng.Intn(20)
	for i := 0; i < n; i++ {
		w.observe(float64(rng.Intn(1_000_000)))
	}
	return w
}

func windowsEqual(t *testing.T, a, b Window) {
	t.Helper()
	if a.Start != b.Start || a.Count != b.Count || a.Sum != b.Sum ||
		a.Min != b.Min || a.Max != b.Max {
		t.Fatalf("windows differ: %+v vs %+v", a, b)
	}
}

// TestRollupAssociativeProperty checks the property the multi-window
// SLO math relies on: Rollup over any parenthesization and order of
// the same windows yields identical count/sum/min/max.
func TestRollupAssociativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(5)
		ws := make([]Window, n)
		for i := range ws {
			ws[i] = randomWindow(rng, sim.Time(i)*sim.Millisecond)
		}

		flat := Rollup(ws...)

		// Left fold: ((w0+w1)+w2)+...
		left := ws[0]
		for _, w := range ws[1:] {
			left = Rollup(left, w)
		}
		windowsEqual(t, flat, left)

		// Right fold: w0+(w1+(w2+...)).
		right := ws[n-1]
		for i := n - 2; i >= 0; i-- {
			right = Rollup(ws[i], right)
		}
		windowsEqual(t, flat, right)

		// Shuffled order (commutativity); Start differs when the
		// earliest window is empty, so compare aggregates only on
		// non-empty-first trials.
		perm := rng.Perm(n)
		shuffled := make([]Window, n)
		for i, p := range perm {
			shuffled[i] = ws[p]
		}
		sh := Rollup(shuffled...)
		if sh.Count != flat.Count || sh.Sum != flat.Sum ||
			(flat.Count > 0 && (sh.Min != flat.Min || sh.Max != flat.Max || sh.Start != flat.Start)) {
			t.Fatalf("shuffled rollup differs: %+v vs %+v", sh, flat)
		}
	}
}

// TestRollupBetweenFoldsInPlace checks that RollupBetween, which folds
// the ring in place, equals Rollup over the WindowsBetween slice bit
// for bit (same windows, same fold order) across sparse series with
// evicted windows and ranges that cut windows or start before 0, and
// that the fold allocates nothing.
func TestRollupBetweenFoldsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		s := NewSeries(sim.Millisecond, 1+rng.Intn(8))
		for i := rng.Intn(40); i > 0; i-- {
			s.Observe(sim.Time(rng.Intn(30_000_000)), float64(rng.Intn(1_000_000))/7)
		}
		from := sim.Time(rng.Intn(32_000_000)) - 2*sim.Millisecond
		to := from + sim.Time(rng.Intn(12_000_000))
		windowsEqual(t, s.RollupBetween(from, to), Rollup(s.WindowsBetween(from, to)...))
	}

	s := NewSeries(sim.Millisecond, 16)
	for i := 0; i < 64; i++ {
		s.Observe(sim.Time(i)*sim.Millisecond/2, float64(i))
	}
	var sink Window
	if n := testing.AllocsPerRun(100, func() { sink = s.RollupBetween(0, 40*sim.Millisecond) }); n != 0 {
		t.Fatalf("RollupBetween allocates %.1f times per call, want 0", n)
	}
	if sink.Count == 0 {
		t.Fatal("rollup saw no windows")
	}
}

func TestStoreObserveAndVisit(t *testing.T) {
	st := NewStore(sim.Millisecond, 8)
	st.Observe("lat", obs.Labels{VM: "a"}, 100, 5)
	st.Observe("lat", obs.Labels{VM: "a"}, 200, 7)
	st.Observe("cnt", obs.Labels{}, 100, 1)

	if st.Len() != 2 {
		t.Fatalf("len = %d, want 2", st.Len())
	}
	var names []string
	st.Visit(func(name string, l obs.Labels, s *Series) { names = append(names, name) })
	if len(names) != 2 || names[0] != "cnt" || names[1] != "lat" {
		t.Fatalf("visit order = %v", names)
	}
	lat := st.Series("lat", obs.Labels{VM: "a"})
	w, ok := lat.WindowAt(0)
	if !ok || w.Count != 2 || w.Sum != 12 {
		t.Fatalf("lat window = %+v ok=%v", w, ok)
	}
	if st.Series("missing", obs.Labels{}) != nil {
		t.Fatal("absent series resolved")
	}
}
