package span

import (
	"cmp"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// analyzeStable is the reference Analyze: a stable sort of the spans
// themselves by (wall, ID), with every span's totals recomputed for
// the conservation check, the sketches and each band. Analyze must
// match it on every field.
func analyzeStable(spans []*Span, alpha float64) *Analysis {
	a := &Analysis{Wall: obs.NewSketch(alpha)}
	for i := range a.PerCategory {
		a.PerCategory[i] = obs.NewSketch(alpha)
	}
	for _, s := range spans {
		if s == nil || !s.Finished() {
			continue
		}
		a.Requests++
		a.Sorted = append(a.Sorted, s)
		if err := s.ConservationError(); err != 0 {
			a.Violations++
			if err < 0 {
				err = -err
			}
			if err > a.MaxError {
				a.MaxError = err
			}
		}
		t := s.Totals()
		a.Totals.Add(t)
		a.Wall.Add(s.Wall())
		for i, v := range t {
			a.PerCategory[i].Add(v)
		}
	}
	slices.SortStableFunc(a.Sorted, func(x, y *Span) int {
		if c := cmp.Compare(x.Wall(), y.Wall()); c != 0 {
			return c
		}
		return cmp.Compare(x.ID, y.ID)
	})
	n := len(a.Sorted)
	if n == 0 {
		return a
	}
	band := func(label string, lo, hi int) {
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		if lo >= hi {
			lo = hi - 1
		}
		b := Band{Label: label, Requests: hi - lo, Wall: a.Sorted[lo].Wall()}
		for _, s := range a.Sorted[lo:hi] {
			b.Totals.Add(s.Totals())
		}
		b.Shares = shares(b.Totals)
		a.Bands = append(a.Bands, b)
	}
	band("all", 0, n)
	band("p50", n*45/100, n*55/100+1)
	band("p99", n*99/100, n)
	band("p99.9", n*999/1000, n)
	return a
}

// diffSpans pools spans from two tracers, so IDs repeat, with walls
// drawn from a handful of values, so (wall, ID) ties are common. Some
// entries are nil, unfinished, or corrupted behind the API's back.
func diffSpans(rng *rand.Rand, n int) []*Span {
	trs := []*Tracer{NewTracer(), NewTracer()}
	cats := []Category{CatService, CatPreemptWait, CatLHPSpin, CatSAWait, CatRunqWait}
	var out []*Span
	for i := 0; i < n; i++ {
		tr := trs[rng.IntN(2)]
		at := us(rng.Int64N(1000))
		s := tr.Start(at)
		if rng.IntN(20) == 0 {
			out = append(out, s) // still open: skipped
			continue
		}
		t := at + us(rng.Int64N(3))
		s.BeginPhase(t, "service", CatService)
		for k := rng.IntN(6); k > 0; k-- {
			t += us(rng.Int64N(3))
			s.Transition(t, cats[rng.IntN(len(cats))])
		}
		s.Finish(t + us(1+rng.Int64N(2)))
		if rng.IntN(25) == 0 && s.Phase(1).Len > 0 {
			skewLastSegment(s, -sim.Time(1+rng.IntN(5)))
		}
		out = append(out, s)
		if rng.IntN(30) == 0 {
			out = append(out, nil)
		}
	}
	return out
}

func TestAnalyzeMatchesStableSort(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		spans := diffSpans(rng, int(seed)*53)
		got, want := Analyze(spans, 0), analyzeStable(spans, 0)
		if got.Requests != want.Requests || got.Violations != want.Violations || got.MaxError != want.MaxError {
			t.Fatalf("seed %d: requests/violations/maxErr = %d/%d/%v, want %d/%d/%v", seed,
				got.Requests, got.Violations, got.MaxError, want.Requests, want.Violations, want.MaxError)
		}
		if !slices.Equal(got.Sorted, want.Sorted) {
			t.Fatalf("seed %d: sorted order differs from the stable sort", seed)
		}
		if got.Totals != want.Totals || !reflect.DeepEqual(got.Bands, want.Bands) {
			t.Fatalf("seed %d: totals/bands = %v %+v, want %v %+v", seed, got.Totals, got.Bands, want.Totals, want.Bands)
		}
		sketches := func(a *Analysis) []*obs.Sketch { return append([]*obs.Sketch{a.Wall}, a.PerCategory[:]...) }
		ws := sketches(want)
		for i, g := range sketches(got) {
			if g.Count() != ws[i].Count() || g.Sum() != ws[i].Sum() || g.Min() != ws[i].Min() || g.Max() != ws[i].Max() {
				t.Fatalf("seed %d sketch %d: count/sum/min/max differ", seed, i)
			}
			for p := 0.0; p <= 100; p += 0.5 {
				if g.Percentile(p) != ws[i].Percentile(p) {
					t.Fatalf("seed %d sketch %d: p%v = %v, want %v", seed, i, p, g.Percentile(p), ws[i].Percentile(p))
				}
			}
		}
	}
}
