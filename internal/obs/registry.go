// Package obs is the observability subsystem of the simulator: a
// metrics registry keyed by subsystem/VM/CPU labels, the one exact
// Histogram every latency distribution uses and the mergeable Sketch,
// a sim-engine-driven periodic sampler that snapshots registered
// metrics into time series, and machine-readable exporters (Prometheus
// text, CSV time series, and the Chrome trace_viewer JSON emitter every
// trace export shares).
//
// The registry holds views, not counts. Each layer of the model keeps
// its own native fields (a vCPU's folded runstate times, a VM's SA
// round trips, a guest kernel's migration counts) and registers
// read-only functions over them once, at attach time (CounterFunc,
// GaugeFunc). They are evaluated only when the sampler ticks or an
// exporter runs, so one event is counted once and the hot paths carry
// no instrumentation. Only distributions, which need every sample,
// are pushed: Histogram hands out a handle the event site feeds. A nil
// *Registry hands out nil histograms, whose Add is a no-op, so a run
// without a registry pays one nil check per sample site.
package obs

import (
	"fmt"
	"sort"
	"strings"
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

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

// entry is one registered metric instance: a view (count or gauge)
// read at sample and export time, or a pushed histogram.
type entry struct {
	name   string
	labels Labels
	lstr   string // labels.String(), rendered once at registration
	kind   metricKind

	count func() int64
	gauge func() float64
	hist  *Histogram
}

// Registry holds every registered metric of a run. The zero value is
// not usable; call NewRegistry. A nil *Registry is a valid "collection
// off" registry: it registers nothing and hands out nil histograms.
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
	lstr := l.String()
	key := name + lstr
	if old, ok := r.byKey[key]; ok {
		if old.kind != k {
			panic(fmt.Sprintf("obs: metric %s%s registered as %s and %s", name, lstr, old.kind, k))
		}
		return old
	}
	e := &entry{name: name, labels: l, lstr: lstr, kind: k}
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

// CounterFunc registers a counter view: fn returns a monotonically
// non-decreasing count (events, cumulative nanoseconds) kept by the
// model, evaluated at sample and export time. No-op on a nil registry;
// re-registering replaces fn.
func (r *Registry) CounterFunc(name string, l Labels, fn func() int64) {
	if r == nil {
		return
	}
	r.get(name, l, kindCounter).count = fn
}

// GaugeFunc registers a gauge view: fn is evaluated at sample and
// export time. No-op on a nil registry; re-registering replaces fn.
func (r *Registry) GaugeFunc(name string, l Labels, fn func() float64) {
	if r == nil {
		return
	}
	r.get(name, l, kindGauge).gauge = fn
}

// Field returns a view of an integer field of the model, for
// CounterFunc.
func Field[T ~int64](p *T) func() int64 { return func() int64 { return int64(*p) } }

// Len returns the number of registered metric instances.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.byKey)
}

// sortedEntries returns the entries ordered by name then label string,
// the deterministic iteration order behind every exporter and the
// sampler.
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
		return es[i].lstr < es[j].lstr
	})
	return es
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
