package obs

import (
	"sort"

	"repro/internal/sim"
)

// Point is one time-series observation in virtual time.
type Point struct {
	At sim.Time
	V  float64
}

// Series is one sampled time series.
type Series struct {
	// Name is the metric name plus an optional ".field" suffix for
	// histogram-derived series (count, mean, p95, max).
	Name   string
	Labels Labels
	Points []Point
}

// Sampler periodically snapshots every metric of a registry into time
// series, driven by the simulation engine's virtual clock. Like the
// registry it is opt-in: scenarios that never attach one pay nothing.
type Sampler struct {
	reg      *Registry
	interval sim.Time
	eng      *sim.Engine
	series   map[string]*Series
	samples  int
}

// NewSampler creates a sampler snapshotting reg every interval of
// virtual time.
func NewSampler(reg *Registry, interval sim.Time) *Sampler {
	if reg == nil {
		panic("obs: NewSampler needs a registry")
	}
	if interval <= 0 {
		panic("obs: NewSampler needs a positive interval")
	}
	return &Sampler{reg: reg, interval: interval, series: map[string]*Series{}}
}

// Interval returns the sampling cadence.
func (s *Sampler) Interval() sim.Time { return s.interval }

// Samples returns how many sampling rounds have run.
func (s *Sampler) Samples() int { return s.samples }

// Start arms the periodic sampling event on eng. A nil *Sampler is a
// no-op, so callers can wire an optional sampler unconditionally.
func (s *Sampler) Start(eng *sim.Engine) {
	if s == nil {
		return
	}
	s.eng = eng
	eng.Every(s.interval, s.sample)
}

// Sample takes one snapshot immediately (used by tests and by callers
// that want a final post-run data point).
func (s *Sampler) Sample() {
	if s == nil {
		return
	}
	s.sample()
}

func (s *Sampler) sample() {
	var now sim.Time
	if s.eng != nil {
		now = s.eng.Now()
	}
	s.samples++
	for _, e := range s.reg.sortedEntries() {
		name, l, h := e.name, e.labels, e.hist
		switch e.kind {
		case kindCounter:
			s.append(name, l, now, float64(e.count()))
		case kindGauge:
			s.append(name, l, now, e.gauge())
		case kindHistogram:
			// A histogram contributes a small family of derived series;
			// quantiles are snapshotted so the series shows how the
			// distribution evolved, not just its final shape.
			s.append(name+".count", l, now, float64(h.Count()))
			s.append(name+".mean", l, now, float64(h.Mean()))
			s.append(name+".p95", l, now, float64(h.Percentile(95)))
			s.append(name+".max", l, now, float64(h.Max()))
		}
	}
}

func (s *Sampler) append(name string, l Labels, at sim.Time, v float64) {
	key := name + l.String()
	se := s.series[key]
	if se == nil {
		se = &Series{Name: name, Labels: l}
		s.series[key] = se
	}
	se.Points = append(se.Points, Point{At: at, V: v})
}

// AllSeries returns every series sorted by name then labels.
func (s *Sampler) AllSeries() []*Series {
	if s == nil {
		return nil
	}
	out := make([]*Series, 0, len(s.series))
	for _, se := range s.series {
		out = append(out, se)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels.String() < out[j].Labels.String()
	})
	return out
}

// SeriesByName returns the series for (name, labels), or nil.
func (s *Sampler) SeriesByName(name string, l Labels) *Series {
	if s == nil {
		return nil
	}
	return s.series[name+l.String()]
}
