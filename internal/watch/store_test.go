package watch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestSeriesObserveAndRollup(t *testing.T) {
	s := NewSeries(10*sim.Millisecond, 8, 0)
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
	s := NewSeries(sim.Millisecond, 4, 0)
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

func TestSeriesSketchWindows(t *testing.T) {
	s := NewSeries(sim.Millisecond, 4, obs.DefaultSketchAlpha)
	for i := 1; i <= 100; i++ {
		s.Observe(sim.Time(i), float64(i)) // all in window 0
	}
	w, ok := s.WindowAt(0)
	if !ok || w.Sketch == nil {
		t.Fatal("sketch window missing")
	}
	p50 := float64(w.Sketch.Percentile(50))
	if math.Abs(p50-50) > 2 {
		t.Fatalf("p50 = %v, want ~50", p50)
	}
}

// randomWindow builds a window with nw values, optionally sketched —
// the generator behind the associativity property test.
func randomWindow(rng *rand.Rand, start sim.Time, sketched bool) Window {
	alpha := 0.0
	if sketched {
		alpha = obs.DefaultSketchAlpha
	}
	w := Window{Start: start}
	n := rng.Intn(20)
	for i := 0; i < n; i++ {
		w.observe(float64(rng.Intn(1_000_000)), alpha)
	}
	return w
}

func windowsEqual(t *testing.T, a, b Window) {
	t.Helper()
	if a.Start != b.Start || a.Count != b.Count || a.Sum != b.Sum ||
		a.Min != b.Min || a.Max != b.Max {
		t.Fatalf("windows differ: %+v vs %+v", a, b)
	}
	if (a.Sketch == nil) != (b.Sketch == nil) {
		t.Fatalf("sketch presence differs")
	}
	if a.Sketch != nil {
		for _, p := range []float64{50, 90, 99, 99.9} {
			if a.Sketch.Percentile(p) != b.Sketch.Percentile(p) {
				t.Fatalf("p%v differs: %v vs %v", p, a.Sketch.Percentile(p), b.Sketch.Percentile(p))
			}
		}
		if a.Sketch.Count() != b.Sketch.Count() || a.Sketch.Sum() != b.Sketch.Sum() {
			t.Fatalf("sketch count/sum differ")
		}
	}
}

// TestRollupAssociativeProperty checks the property the multi-window
// SLO math relies on: Rollup over any parenthesization and order of
// the same windows yields identical rollups — including the quantile
// sketches, which merge bucket-wise.
func TestRollupAssociativeProperty(t *testing.T) {
	for _, sketched := range []bool{false, true} {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 50; trial++ {
			n := 2 + rng.Intn(5)
			ws := make([]Window, n)
			for i := range ws {
				ws[i] = randomWindow(rng, sim.Time(i)*sim.Millisecond, sketched)
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
}

// TestRollupDoesNotAliasInputs guards the subtle bug class where a
// rollup's sketch shares state with a ring window's sketch.
func TestRollupDoesNotAliasInputs(t *testing.T) {
	a := Window{}
	a.observe(10, obs.DefaultSketchAlpha)
	before := a.Sketch.Count()
	r := Rollup(a)
	r.Sketch.Add(99)
	if a.Sketch.Count() != before {
		t.Fatal("Rollup aliased an input sketch")
	}
}

func TestStoreObserveAndVisit(t *testing.T) {
	st := NewStore(sim.Millisecond, 8)
	st.SketchSeries("lat")
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
	if !ok || w.Count != 2 || w.Sketch == nil {
		t.Fatalf("lat window = %+v ok=%v", w, ok)
	}
	cnt := st.Series("cnt", obs.Labels{})
	w, _ = cnt.WindowAt(0)
	if w.Sketch != nil {
		t.Fatal("unsketchable series grew a sketch")
	}
}

func TestStoreAttachSampler(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("reqs_total", obs.Labels{Sub: "hv"})
	eng := sim.NewEngine()
	eng.Every(sim.Millisecond, func() { c.Inc() })
	sampler := obs.NewSampler(reg, 10*sim.Millisecond)
	sampler.Start(eng)

	st := NewStore(10*sim.Millisecond, 16)
	st.Attach(sampler)
	if err := eng.Run(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s := st.Series("reqs_total", obs.Labels{Sub: "hv"})
	if s == nil {
		t.Fatal("sampler points did not reach the store")
	}
	if got := len(s.WindowsBetween(0, 60*sim.Millisecond)); got == 0 {
		t.Fatal("no windows recorded")
	}
}
