package span

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Blame analysis: turn a pile of finished spans into the paper's
// quantitative story — per-request critical paths and aggregate
// per-category latency breakdowns at p50/p99/p99.9 ("p99 = 4% service,
// 61% preempt-wait, 22% LHP spin, ..."). The conservation invariant
// (segment sum == wall latency, exact) is checked for every span and
// surfaced as a violation count so a broken instrumentation hook can
// never silently skew the attribution.

// CategoryShare is one category's slice of a time budget.
type CategoryShare struct {
	Cat   Category
	Time  sim.Time
	Share float64 // fraction of the budget (0..1)
}

// shares converts per-category totals into a non-zero, descending
// share list (ties broken by category order, so output is stable).
func shares(t Totals) []CategoryShare {
	sum := t.Sum()
	if sum <= 0 {
		return nil
	}
	out := make([]CategoryShare, 0, NumCategories)
	for i, v := range t {
		if v > 0 {
			out = append(out, CategoryShare{Cat: Category(i), Time: v, Share: float64(v) / float64(sum)})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Time > out[b].Time })
	return out
}

// TopContributors returns the span's per-category critical-path
// breakdown: its own segment time aggregated per category, largest
// first, capped at k (k <= 0 means all).
func (s *Span) TopContributors(k int) []CategoryShare {
	out := shares(s.Totals())
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Band is the blame breakdown of one latency cohort: the requests
// whose wall latency falls in a quantile band (e.g. the top 1% for
// p99). Shares answer "for requests this slow, where did the time go".
type Band struct {
	Label    string
	Requests int
	// Wall is the cohort's latency floor — the band's order statistic.
	Wall   sim.Time
	Totals Totals
	Shares []CategoryShare
}

// Share returns the band's share for category c (0 when absent).
func (b *Band) Share(c Category) float64 {
	for _, sh := range b.Shares {
		if sh.Cat == c {
			return sh.Share
		}
	}
	return 0
}

// Analysis is the result of Analyze over one run's finished spans.
type Analysis struct {
	Requests int
	// Violations counts spans whose segments do not sum to their wall
	// latency. The instrumentation maintains this at zero by
	// construction; any other value is a bug.
	Violations int
	// MaxError is the largest absolute conservation error seen.
	MaxError sim.Time

	// Wall is a mergeable quantile sketch of end-to-end latency;
	// PerCategory sketches the per-request time spent in each category
	// (zeros included, so quantiles are over all requests).
	Wall        *obs.Sketch
	PerCategory [NumCategories]*obs.Sketch

	// Totals is the grand per-category budget across all requests.
	Totals Totals
	// Bands holds the all/p50/p99/p99.9 cohort breakdowns, in that
	// order.
	Bands []Band
	// Sorted is every analyzed span ascending by (wall, ID).
	Sorted []*Span
}

// Band returns the named band (e.g. "p99"), or nil.
func (a *Analysis) Band(label string) *Band {
	for i := range a.Bands {
		if a.Bands[i].Label == label {
			return &a.Bands[i]
		}
	}
	return nil
}

// Slowest returns the k slowest requests, slowest first.
func (a *Analysis) Slowest(k int) []*Span {
	n := len(a.Sorted)
	if k > n {
		k = n
	}
	out := make([]*Span, 0, k)
	for i := n - 1; i >= n-k; i-- {
		out = append(out, a.Sorted[i])
	}
	return out
}

// Analyze computes the blame breakdown over finished spans. alpha is
// the sketch relative-error bound (<= 0 selects the default 1%).
//
// Each span's totals are computed once, and they feed the conservation
// check, the sketches and the grand budget (which is the "all" band's).
// The sort runs over compact (wall, ID, index) keys rather than the
// spans: the index breaks ties exactly as a stable sort would, which
// matters because pooled spans from several tracers repeat IDs.
func Analyze(spans []*Span, alpha float64) *Analysis {
	a := &Analysis{Wall: obs.NewSketch(alpha)}
	for i := range a.PerCategory {
		a.PerCategory[i] = obs.NewSketch(alpha)
	}
	type sortKey struct {
		wall sim.Time
		id   int64
		i    int
	}
	keys := make([]sortKey, 0, len(spans))
	for si, s := range spans {
		if s == nil || !s.Finished() {
			continue
		}
		t := s.Totals()
		wall := s.Wall()
		if err := wall - t.Sum(); err != 0 {
			a.Violations++
			if err < 0 {
				err = -err
			}
			if err > a.MaxError {
				a.MaxError = err
			}
		}
		a.Totals.Add(t)
		a.Wall.Add(wall)
		for i, v := range t {
			a.PerCategory[i].Add(v)
		}
		keys = append(keys, sortKey{wall: wall, id: s.ID, i: si})
	}
	n := len(keys)
	a.Requests = n
	if n == 0 {
		return a
	}
	slices.SortFunc(keys, func(x, y sortKey) int {
		if c := cmp.Compare(x.wall, y.wall); c != 0 {
			return c
		}
		if c := cmp.Compare(x.id, y.id); c != 0 {
			return c
		}
		return cmp.Compare(x.i, y.i)
	})
	a.Sorted = make([]*Span, n)
	for r, k := range keys {
		a.Sorted[r] = spans[k.i]
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
		b := Band{Label: label, Requests: hi - lo, Wall: keys[lo].wall}
		if lo == 0 && hi == n {
			b.Totals = a.Totals
		} else {
			for _, s := range a.Sorted[lo:hi] {
				b.Totals.Add(s.Totals())
			}
		}
		b.Shares = shares(b.Totals)
		a.Bands = append(a.Bands, b)
	}
	band("all", 0, n)
	// p50 is the middle decile, not a single noisy request; the tail
	// bands are top-1% and top-0.1% cohorts.
	band("p50", n*45/100, n*55/100+1)
	band("p99", n*99/100, n)
	band("p99.9", n*999/1000, n)
	return a
}
