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

	// plan pairs each registry entry, in sorted order, with the series
	// it feeds. Entries are never removed, so the plan is current
	// exactly when it covers Len entries; a registration that adds one
	// rebuilds it at the next tick.
	plan []planned
}

// planned is one registry entry and its series: one for a counter or
// gauge, count/mean/p95/max for a histogram.
type planned struct {
	e      *entry
	series []*Series
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
	if len(s.plan) != s.reg.Len() {
		s.replan(s.reg.sortedEntries())
	}
	for _, p := range s.plan {
		switch e := p.e; e.kind {
		case kindCounter:
			p.series[0].add(now, float64(e.count()))
		case kindGauge:
			p.series[0].add(now, e.gauge())
		case kindHistogram:
			// A histogram contributes a small family of derived series;
			// quantiles are snapshotted so the series shows how the
			// distribution evolved, not just its final shape.
			h := e.hist
			p.series[0].add(now, float64(h.Count()))
			p.series[1].add(now, float64(h.Mean()))
			p.series[2].add(now, float64(h.Percentile(95)))
			p.series[3].add(now, float64(h.Max()))
		}
	}
}

// histSuffixes name a histogram's derived series, in sampling order.
var histSuffixes = []string{".count", ".mean", ".p95", ".max"}

// replan pairs every entry with its series, creating the series of
// entries registered since the last plan.
func (s *Sampler) replan(es []*entry) {
	s.plan = s.plan[:0]
	for _, e := range es {
		p := planned{e: e}
		if e.kind == kindHistogram {
			for _, suf := range histSuffixes {
				p.series = append(p.series, s.seriesFor(e.name+suf, e))
			}
		} else {
			p.series = []*Series{s.seriesFor(e.name, e)}
		}
		s.plan = append(s.plan, p)
	}
}

// seriesFor returns (creating on first use) the series called name
// under e's labels.
func (s *Sampler) seriesFor(name string, e *entry) *Series {
	key := name + e.lstr
	se := s.series[key]
	if se == nil {
		se = &Series{Name: name, Labels: e.labels}
		s.series[key] = se
	}
	return se
}

func (se *Series) add(at sim.Time, v float64) {
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
