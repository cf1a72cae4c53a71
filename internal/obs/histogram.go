package obs

import (
	"math"
	"slices"

	"repro/internal/sim"
)

// Histogram is an exact distribution of virtual-time samples: it keeps
// every sample plus a running sum, so Add, Count, Sum and Mean are
// O(1) and Percentile/Quantiles are exact nearest-rank order
// statistics (the samples sort in place at most once per run of adds).
// The zero value is empty and usable; all methods are nil-safe.
type Histogram struct {
	samples []sim.Time
	sum     sim.Time
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(v sim.Time) {
	if h == nil {
		return
	}
	h.samples = append(h.samples, v)
	h.sum += v
	h.sorted = false
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return int64(len(h.samples))
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() sim.Time {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() sim.Time {
	if h.Count() == 0 {
		return 0
	}
	return h.sum / sim.Time(len(h.samples))
}

// Max returns the largest sample, or 0 with no samples. With samples
// it is the true maximum, even when every sample is negative.
func (h *Histogram) Max() sim.Time {
	if h.Count() == 0 {
		return 0
	}
	return slices.Max(h.samples)
}

// Percentile returns the p-th percentile (0 < p <= 100) by nearest
// rank, or 0 with no samples.
func (h *Histogram) Percentile(p float64) sim.Time {
	n := int(h.Count())
	if n == 0 {
		return 0
	}
	if !h.sorted {
		slices.Sort(h.samples)
		h.sorted = true
	}
	rank := min(max(int(math.Ceil(p/100*float64(n))), 1), n)
	return h.samples[rank-1]
}

// Quantiles returns the Percentile of each p in ps (all 0 with no
// samples).
func (h *Histogram) Quantiles(ps ...float64) []sim.Time {
	out := make([]sim.Time, len(ps))
	for i, p := range ps {
		out[i] = h.Percentile(p)
	}
	return out
}

// Stats summarises a slice of float64 observations.
type Stats struct {
	N              int
	Mean, Min, Max float64
	Stddev         float64
}

// Summarize computes summary statistics (Stddev is Bessel-corrected,
// 0 with fewer than two observations).
func Summarize(xs []float64) Stats {
	s := Stats{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}
