// Package watch is the online half of the simulator's observability:
// where internal/obs answers questions after a run, watch answers them
// while the run is still going. It keeps a windowed rollup store over
// virtual time (fixed-interval ring buckets with min/max/sum/count),
// evaluates multi-window burn-rate SLO
// rules against the router's violation stream, attributes alerts to
// noisy neighbors by correlating victim pain against co-resident VM
// pCPU occupancy, and snapshots a flight-recorder incident bundle when
// an alert fires or an invariant trips.
//
// Like span and obs, watch is pay-as-you-go: a run that never attaches
// a Watcher pays only dead nil-checks at the hook sites.
package watch

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Window is one fixed-interval rollup bucket: [Start, Start+interval)
// in virtual time, with exact Count/Sum/Min/Max.
type Window struct {
	Start sim.Time
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// Empty reports whether the window saw no observations.
func (w Window) Empty() bool { return w.Count == 0 }

// Mean returns Sum/Count, or 0 for an empty window.
func (w Window) Mean() float64 {
	if w.Count == 0 {
		return 0
	}
	return w.Sum / float64(w.Count)
}

// observe folds one value into the window.
func (w *Window) observe(v float64) {
	if w.Count == 0 || v < w.Min {
		w.Min = v
	}
	if w.Count == 0 || v > w.Max {
		w.Max = v
	}
	w.Count++
	w.Sum += v
}

// merge folds window o into w; an empty o leaves w as it was.
func (w *Window) merge(o Window) {
	if o.Empty() {
		return
	}
	if w.Count == 0 {
		w.Start = o.Start
		w.Min = o.Min
		w.Max = o.Max
	} else {
		if o.Start < w.Start {
			w.Start = o.Start
		}
		if o.Min < w.Min {
			w.Min = o.Min
		}
		if o.Max > w.Max {
			w.Max = o.Max
		}
	}
	w.Count += o.Count
	w.Sum += o.Sum
}

// Rollup merges a set of windows into one aggregate window — the
// operation behind every multi-window SLO evaluation. It is associative
// and commutative: min/max/sum/count combine trivially, so
// Rollup(a, Rollup(b, c)) equals Rollup(Rollup(a, b), c). The result's
// Start is the earliest non-empty window's Start.
func Rollup(ws ...Window) Window {
	var out Window
	for _, w := range ws {
		out.merge(w)
	}
	return out
}

// Series is a ring of consecutive windows for one metric: depth windows
// of a fixed interval, indexed by aligned start time. Observations land
// in the window covering their timestamp; writing a window whose slot
// holds an older epoch evicts it, so the ring always covers the most
// recent depth intervals that saw traffic.
type Series struct {
	interval sim.Time
	ring     []Window
}

// NewSeries returns an empty series of depth windows of the given
// interval.
func NewSeries(interval sim.Time, depth int) *Series {
	if interval <= 0 {
		panic("watch: NewSeries needs a positive interval")
	}
	if depth <= 0 {
		panic("watch: NewSeries needs a positive depth")
	}
	s := &Series{interval: interval, ring: make([]Window, depth)}
	for i := range s.ring {
		s.ring[i].Start = -1 // no window ever starts at negative time
	}
	return s
}

// Interval returns the window width.
func (s *Series) Interval() sim.Time { return s.interval }

// slot returns the ring position for the window starting at ws.
func (s *Series) slot(ws sim.Time) int {
	return int((ws / s.interval) % sim.Time(len(s.ring)))
}

// Observe folds v into the window covering time at.
func (s *Series) Observe(at sim.Time, v float64) {
	ws := at - at%s.interval
	i := s.slot(ws)
	if s.ring[i].Start != ws {
		s.ring[i] = Window{Start: ws}
	}
	s.ring[i].observe(v)
}

// firstStart returns the start of the window containing from, clamped
// to 0: a range that cuts a window in half still sees its data.
func (s *Series) firstStart(from sim.Time) sim.Time {
	if from < 0 {
		from = 0
	}
	return from - from%s.interval
}

// WindowsBetween returns the non-empty windows overlapping [from, to),
// oldest first (the window containing `from` is included even when
// `from` cuts it in half). from is clamped to 0; windows evicted from
// the ring are simply absent.
func (s *Series) WindowsBetween(from, to sim.Time) []Window {
	var out []Window
	for ws := s.firstStart(from); ws < to; ws += s.interval {
		i := s.slot(ws)
		if s.ring[i].Start == ws && !s.ring[i].Empty() {
			out = append(out, s.ring[i])
		}
	}
	return out
}

// WindowAt returns the window starting exactly at ws, if the ring
// still holds it.
func (s *Series) WindowAt(ws sim.Time) (Window, bool) {
	if ws < 0 || ws%s.interval != 0 {
		return Window{}, false
	}
	i := s.slot(ws)
	if s.ring[i].Start != ws {
		return Window{}, false
	}
	return s.ring[i], true
}

// RollupBetween merges the windows in [from, to) into one aggregate,
// folding them in place in the order WindowsBetween lists them, so it
// equals Rollup(s.WindowsBetween(from, to)...) and allocates nothing.
func (s *Series) RollupBetween(from, to sim.Time) Window {
	var out Window
	for ws := s.firstStart(from); ws < to; ws += s.interval {
		if w := &s.ring[s.slot(ws)]; w.Start == ws {
			out.merge(*w)
		}
	}
	return out
}

// Store maps metric identities (name + obs labels) to windowed series,
// all sharing one interval and depth. It is the watcher's working set:
// pain signals and occupancy deltas land here.
type Store struct {
	interval sim.Time
	depth    int
	entries  map[string]*storeEntry
}

type storeEntry struct {
	name   string
	labels obs.Labels
	series *Series
}

// NewStore returns an empty store with the given window interval and
// ring depth.
func NewStore(interval sim.Time, depth int) *Store {
	if interval <= 0 {
		panic("watch: NewStore needs a positive interval")
	}
	if depth <= 0 {
		panic("watch: NewStore needs a positive depth")
	}
	return &Store{interval: interval, depth: depth, entries: map[string]*storeEntry{}}
}

// Interval returns the store's window width.
func (st *Store) Interval() sim.Time { return st.interval }

// Observe folds a point into the series for (name, labels), creating
// it on first use.
func (st *Store) Observe(name string, l obs.Labels, at sim.Time, v float64) {
	st.Resolve(name, l).Observe(at, v)
}

// Resolve returns the series for (name, labels), creating it on first
// use. A feed that observes one identity over and over keeps the
// result and calls Series.Observe, skipping the key build per point.
func (st *Store) Resolve(name string, l obs.Labels) *Series {
	key := name + l.String()
	e := st.entries[key]
	if e == nil {
		e = &storeEntry{name: name, labels: l, series: NewSeries(st.interval, st.depth)}
		st.entries[key] = e
	}
	return e.series
}

// Series returns the series for (name, labels), or nil.
func (st *Store) Series(name string, l obs.Labels) *Series {
	e := st.entries[name+l.String()]
	if e == nil {
		return nil
	}
	return e.series
}

// Len returns the number of distinct series.
func (st *Store) Len() int { return len(st.entries) }

// Visit calls fn for every series in deterministic (name, labels)
// order.
func (st *Store) Visit(fn func(name string, l obs.Labels, s *Series)) {
	keys := make([]string, 0, len(st.entries))
	for k := range st.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := st.entries[k]
		fn(e.name, e.labels, e.series)
	}
}
