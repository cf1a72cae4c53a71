// Package obs is the observability subsystem of the simulator: a typed
// metrics registry (counters, gauges, histograms keyed by
// subsystem/VM/CPU labels), the one exact Histogram every latency
// distribution uses and the mergeable Sketch, a sim-engine-driven
// periodic sampler that snapshots registered metrics into time series,
// and machine-readable exporters (Prometheus text, CSV time series, and
// the Chrome trace_viewer JSON emitter every trace export shares).
//
// Collection is opt-in and nil-safe, mirroring trace.Log: a nil
// *Registry hands out nil metric handles, and every mutating method on
// a nil handle is a no-op, so instrumentation sites never need a guard
// and a run without a registry pays only a nil check.
package obs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Labels identify one instance of a metric. Empty fields are omitted
// from the rendered label set.
type Labels struct {
	// Sub is the emitting subsystem ("hv", "guest", "wl").
	Sub string
	// VM is the virtual machine name, when the metric is per-VM.
	VM string
	// CPU names a vCPU ("fg/v0"), pCPU ("p2"), or guest CPU ("cpu1").
	CPU string
	// Kind is a free-form discriminator (a runstate name, an event
	// class) for metric families split along one more dimension.
	Kind string
}

// String renders the labels in Prometheus form, e.g.
// `{sub="hv",vm="fg",cpu="fg/v0"}`. Empty label sets render as "".
func (l Labels) String() string {
	var parts []string
	add := func(k, v string) {
		if v != "" {
			parts = append(parts, fmt.Sprintf("%s=%q", k, v))
		}
	}
	add("sub", l.Sub)
	add("vm", l.VM)
	add("cpu", l.CPU)
	add("kind", l.Kind)
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Counter is a monotonically non-decreasing int64 (event counts,
// cumulative nanoseconds). All methods are nil-safe.
type Counter struct{ v int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// AddTime increments the counter by a virtual duration in nanoseconds.
func (c *Counter) AddTime(d sim.Time) { c.Add(int64(d)) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous float64 value. All methods are nil-safe.
type Gauge struct{ v float64 }

// Set replaces the gauge value.
func (g *Gauge) Set(x float64) {
	if g != nil {
		g.v = x
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
	kindGaugeFunc
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	case kindGaugeFunc:
		return "gauge"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

// entry is one registered metric instance.
type entry struct {
	name   string
	labels Labels
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// Registry holds every registered metric of a run. The zero value is
// not usable; call NewRegistry. A nil *Registry is a valid "collection
// off" registry: its getters return nil handles.
type Registry struct {
	byKey map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*entry{}}
}

// get returns the existing entry for (name, labels) or registers a new
// one of the given kind. Re-registering under a different kind is a
// programming error and panics.
func (r *Registry) get(name string, l Labels, k metricKind) *entry {
	key := name + l.String()
	if old, ok := r.byKey[key]; ok {
		if old.kind != k {
			panic(fmt.Sprintf("obs: metric %s%s registered as %s and %s", name, l, old.kind, k))
		}
		return old
	}
	e := &entry{name: name, labels: l, kind: k}
	r.byKey[key] = e
	return e
}

// find returns the entry registered under (name, labels) when it is of
// kind k, or nil. It never registers.
func (r *Registry) find(name string, l Labels, k metricKind) *entry {
	if r == nil {
		return nil
	}
	if e := r.byKey[name+l.String()]; e != nil && e.kind == k {
		return e
	}
	return nil
}

// Counter returns (registering on first use) the counter for
// (name, labels). Returns nil on a nil registry.
func (r *Registry) Counter(name string, l Labels) *Counter {
	if r == nil {
		return nil
	}
	e := r.get(name, l, kindCounter)
	if e.counter == nil {
		e.counter = &Counter{}
	}
	return e.counter
}

// Gauge returns (registering on first use) the gauge for (name, labels).
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string, l Labels) *Gauge {
	if r == nil {
		return nil
	}
	e := r.get(name, l, kindGauge)
	if e.gauge == nil {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// Histogram returns (registering on first use) the histogram for
// (name, labels). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, l Labels) *Histogram {
	if r == nil {
		return nil
	}
	e := r.get(name, l, kindHistogram)
	if e.hist == nil {
		e.hist = &Histogram{}
	}
	return e.hist
}

// GaugeFunc registers a polled gauge: fn is evaluated at sample and
// export time. No-op on a nil registry; re-registering replaces fn.
func (r *Registry) GaugeFunc(name string, l Labels, fn func() float64) {
	if r == nil {
		return
	}
	r.get(name, l, kindGaugeFunc).fn = fn
}

// Len returns the number of registered metric instances.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.byKey)
}

// sortedEntries returns the entries ordered by name then label string,
// the deterministic iteration order behind every exporter.
func (r *Registry) sortedEntries() []*entry {
	if r == nil {
		return nil
	}
	es := make([]*entry, 0, len(r.byKey))
	for _, e := range r.byKey {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].name != es[j].name {
			return es[i].name < es[j].name
		}
		return es[i].labels.String() < es[j].labels.String()
	})
	return es
}

// Visit calls fn for every registered metric in deterministic order.
// Exactly one of counter/gauge/hist is non-nil per call; polled gauges
// are presented as a *Gauge holding the current fn value.
func (r *Registry) Visit(fn func(name string, l Labels, counter *Counter, gauge *Gauge, hist *Histogram)) {
	for _, e := range r.sortedEntries() {
		switch e.kind {
		case kindCounter:
			fn(e.name, e.labels, e.counter, nil, nil)
		case kindGauge:
			fn(e.name, e.labels, nil, e.gauge, nil)
		case kindGaugeFunc:
			fn(e.name, e.labels, nil, &Gauge{v: e.fn()}, nil)
		case kindHistogram:
			fn(e.name, e.labels, nil, nil, e.hist)
		}
	}
}

// FindHistogram returns the histogram registered under (name, labels),
// or nil when absent (or on a nil registry). Unlike Histogram it never
// registers.
func (r *Registry) FindHistogram(name string, l Labels) *Histogram {
	if e := r.find(name, l, kindHistogram); e != nil {
		return e.hist
	}
	return nil
}

// FindCounter returns the counter registered under (name, labels), or
// nil when absent. It never registers.
func (r *Registry) FindCounter(name string, l Labels) *Counter {
	if e := r.find(name, l, kindCounter); e != nil {
		return e.counter
	}
	return nil
}
