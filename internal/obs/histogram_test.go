package obs

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	var r Histogram
	if r.Count() != 0 || r.Mean() != 0 || r.Max() != 0 || r.Percentile(99) != 0 {
		t.Fatal("empty histogram should be all zeros")
	}
	for _, v := range []sim.Time{30, 10, 20} {
		r.Add(v)
	}
	if r.Count() != 3 {
		t.Fatalf("count = %d", r.Count())
	}
	if r.Mean() != 20 {
		t.Fatalf("mean = %v", r.Mean())
	}
	if r.Max() != 30 {
		t.Fatalf("max = %v", r.Max())
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var r Histogram
	for i := 1; i <= 100; i++ {
		r.Add(sim.Time(i))
	}
	cases := []struct {
		p    float64
		want sim.Time
	}{
		{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1},
	}
	for _, c := range cases {
		if got := r.Percentile(c.p); got != c.want {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileAfterMoreAdds(t *testing.T) {
	var r Histogram
	r.Add(5)
	_ = r.Percentile(50) // places the median
	r.Add(1)             // and this may belong before it
	if got := r.Percentile(1); got != 1 {
		t.Fatalf("P1 = %v after re-add, want 1", got)
	}
}

// TestPercentileMatchesSort is the differential test of the selection:
// on every shape of input (random with many duplicates, negatives,
// sorted, reversed, all equal, organ pipe) and sizes 1 to 2000, every
// percentile, ranks 1 and n and p = 100 included, must equal the
// nearest-rank sample of a sorted copy, also when queries interleave
// with adds and repeat a rank.
func TestPercentileMatchesSort(t *testing.T) {
	rng := sim.NewRNG(7)
	shapes := map[string]func(i, n int) sim.Time{
		"random":    func(int, int) sim.Time { return sim.Time(rng.Intn(2001) - 1000) },
		"dups":      func(int, int) sim.Time { return sim.Time(rng.Intn(4) - 2) },
		"sorted":    func(i, _ int) sim.Time { return sim.Time(i) },
		"reversed":  func(i, n int) sim.Time { return sim.Time(n - i) },
		"equal":     func(int, int) sim.Time { return -3 },
		"organpipe": func(i, n int) sim.Time { return sim.Time(min(i, n-i)) },
	}
	ps := []float64{0.001, 1, 25, 50, 50, 90, 95, 99, 99.9, 100}
	for name, shape := range shapes {
		for _, n := range []int{1, 2, 3, 5, 8, 13, 100, 257, 2000} {
			var h Histogram
			var ref []sim.Time
			check := func() {
				sorted := slices.Clone(ref)
				slices.Sort(sorted)
				for _, p := range ps {
					rank := min(max(int(math.Ceil(p/100*float64(len(sorted)))), 1), len(sorted))
					if got, want := h.Percentile(p), sorted[rank-1]; got != want {
						t.Fatalf("%s n=%d: P%v = %v, want %v (rank %d)", name, len(sorted), p, got, want, rank)
					}
				}
			}
			for i := 0; i < n; i++ {
				v := shape(i, n)
				h.Add(v)
				ref = append(ref, v)
				if i%(n/4+1) == 0 {
					check()
				}
			}
			check()
			if h.Count() != int64(n) || h.Max() != slices.Max(ref) {
				t.Fatalf("%s n=%d: count %d max %v after selections", name, n, h.Count(), h.Max())
			}
		}
	}
}

func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var r Histogram
		min, max := sim.Time(raw[0]), sim.Time(raw[0])
		for _, v := range raw {
			tv := sim.Time(v)
			r.Add(tv)
			if tv < min {
				min = tv
			}
			if tv > max {
				max = tv
			}
		}
		p := float64(pRaw%100) + 1
		got := r.Percentile(p)
		return got >= min && got <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAllNegative(t *testing.T) {
	var r Histogram
	for _, v := range []sim.Time{-30, -10, -20} {
		r.Add(v)
	}
	// A scan seeded from 0 would clamp this to 0; the true max is -10.
	if got := r.Max(); got != -10 {
		t.Fatalf("max = %v, want -10", got)
	}
}

func TestSum(t *testing.T) {
	var r Histogram
	if r.Sum() != 0 {
		t.Fatal("empty sum should be 0")
	}
	for _, v := range []sim.Time{5, -2, 7} {
		r.Add(v)
	}
	if got := r.Sum(); got != 10 {
		t.Fatalf("sum = %v, want 10", got)
	}
}

func TestQuantiles(t *testing.T) {
	var r Histogram
	if qs := r.Quantiles(50, 99); len(qs) != 2 || qs[0] != 0 || qs[1] != 0 {
		t.Fatalf("empty quantiles = %v", qs)
	}
	for i := 1; i <= 100; i++ {
		r.Add(sim.Time(i))
	}
	qs := r.Quantiles(50, 95, 99, 100)
	want := []sim.Time{50, 95, 99, 100}
	for i := range want {
		if qs[i] != want[i] {
			t.Errorf("quantile[%d] = %v, want %v", i, qs[i], want[i])
		}
	}
	// Quantiles must agree with individual Percentile calls.
	if qs[1] != r.Percentile(95) {
		t.Fatal("Quantiles diverges from Percentile")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 6})
	if s.N != 3 || s.Mean != 4 || s.Min != 2 || s.Max != 6 {
		t.Fatalf("bad stats: %+v", s)
	}
	if math.Abs(s.Stddev-2) > 1e-9 {
		t.Fatalf("stddev = %v, want 2", s.Stddev)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatal("nil input should summarize to zero")
	}
}
