package obs

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/sim"
)

// Histogram is an exact distribution of virtual-time samples: it keeps
// every sample plus a running sum, so Add, Count, Sum and Mean are
// O(1) and Percentile/Quantiles are exact nearest-rank order
// statistics, each found by an O(n) selection that reorders the
// samples in place. The zero value is empty and usable; all methods
// are nil-safe.
type Histogram struct {
	samples []sim.Time
	sum     sim.Time
	ranked  int // a 1-based rank whose sample sits in place, or 0
}

// Add records one sample.
func (h *Histogram) Add(v sim.Time) {
	if h == nil {
		return
	}
	h.samples = append(h.samples, v)
	h.sum += v
	h.ranked = 0
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
	rank := min(max(int(math.Ceil(p/100*float64(n))), 1), n)
	if h.ranked != rank {
		selectRank(h.samples, rank-1)
		h.ranked = rank
	}
	return h.samples[rank-1]
}

// selectRank reorders s so that s[k] holds the value it would hold
// sorted, with nothing greater before it and nothing smaller after it:
// quickselect with a median-of-three pivot, and partitions that stop
// on equal values on both sides, so sorted runs and duplicates split
// evenly. Past 2·log2(n) rounds it sorts what is left, which bounds
// the worst case at a sort's.
func selectRank(s []sim.Time, k int) {
	lo, hi := 0, len(s)-1
	for budget := 2 * bits.Len(uint(len(s))); lo < hi; budget-- {
		if budget == 0 {
			slices.Sort(s[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Now s[lo..j] <= pivot <= s[i..hi], and s[j+1..i-1] == pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
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
