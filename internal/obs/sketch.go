package obs

import (
	"math"
	"sort"

	"repro/internal/sim"
)

// Sketch is a DDSketch-style streaming quantile sketch over sim.Time
// values: logarithmically-spaced buckets sized so every quantile
// estimate is within a bounded *relative* error of the true value,
// regardless of how many samples stream through, in memory bounded by
// the value range rather than the sample count (Histogram keeps every
// sample for exact order statistics). Two sketches merge exactly
// (bucket-wise counter addition), so per-worker sketches built in
// parallel combine into the same result in any merge order. That keeps
// tail breakdowns honest under the parallel experiment harness.
type Sketch struct {
	alpha    float64
	gamma    float64 // (1+alpha)/(1-alpha)
	logGamma float64

	counts map[int]int64 // bucket index -> count
	zero   int64         // values <= 0 (exact)
	n      int64
	sum    sim.Time
	min    sim.Time
	max    sim.Time
}

// DefaultSketchAlpha is the relative-error bound used when callers do
// not pick one: estimates are within 1% of the true quantile value.
const DefaultSketchAlpha = 0.01

// NewSketch returns an empty sketch with relative-error bound alpha
// (0 < alpha < 1). Non-positive alpha falls back to
// DefaultSketchAlpha.
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 || alpha >= 1 {
		alpha = DefaultSketchAlpha
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:    alpha,
		gamma:    gamma,
		logGamma: math.Log(gamma),
		counts:   make(map[int]int64),
	}
}

// bucket returns the index i such that gamma^(i-1) < v <= gamma^i.
func (s *Sketch) bucket(v sim.Time) int {
	return int(math.Ceil(math.Log(float64(v)) / s.logGamma))
}

// estimate returns the representative value of bucket i: the midpoint
// 2*gamma^i/(gamma+1), which bounds the relative error at alpha.
func (s *Sketch) estimate(i int) sim.Time {
	return sim.Time(math.Round(2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)))
}

// Add records one value. Non-positive values land in an exact zero
// bucket (durations are never negative; zero is common for idle
// categories).
func (s *Sketch) Add(v sim.Time) {
	s.n++
	s.sum += v
	if s.n == 1 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if v <= 0 {
		s.zero++
		return
	}
	s.counts[s.bucket(v)]++
}

// Count returns how many values were added.
func (s *Sketch) Count() int64 { return s.n }

// Sum returns the exact sum of all added values (sums, like bucket
// counts, merge exactly).
func (s *Sketch) Sum() sim.Time { return s.sum }

// Min and Max return the exact extremes of the stream.
func (s *Sketch) Min() sim.Time { return s.min }
func (s *Sketch) Max() sim.Time { return s.max }

// Merge folds o into s. Both sketches must share the same alpha (the
// bucket layouts are incompatible otherwise); merging is exact —
// bucket-wise integer addition — hence associative and commutative.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.n == 0 {
		return
	}
	if o.alpha != s.alpha {
		panic("obs: merging sketches with different alpha")
	}
	if s.n == 0 || o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n += o.n
	s.sum += o.sum
	s.zero += o.zero
	for i, c := range o.counts {
		s.counts[i] += c
	}
}

// Percentile returns the nearest-rank p-th percentile estimate
// (p in [0,100]), mirroring Histogram.Percentile. The returned
// value is within a factor (1±alpha) of the true order statistic.
func (s *Sketch) Percentile(p float64) sim.Time {
	if s.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.n {
		rank = s.n
	}
	if rank <= s.zero {
		return 0
	}
	cum := s.zero
	keys := make([]int, 0, len(s.counts))
	for i := range s.counts {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	for _, i := range keys {
		cum += s.counts[i]
		if cum >= rank {
			return s.estimate(i)
		}
	}
	return s.max
}
