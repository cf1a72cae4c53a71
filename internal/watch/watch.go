package watch

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Config configures a Watcher. The zero value is usable.
type Config struct {
	// Rules are the burn-rate alert rules to evaluate each epoch.
	Rules []Rule
}

// Interval is the epoch cadence and window width; DefaultDepth is the
// store's ring depth in windows, grown to cover the longest rule slow
// window.
const (
	Interval     = 100 * sim.Millisecond
	DefaultDepth = 64
)

// Watcher is the online SLO watchdog: it rolls telemetry into windows,
// evaluates burn-rate rules every epoch, runs noisy-neighbor
// attribution when a rule fires, and snapshots flight-recorder
// incident bundles. One watcher serves one run (or one cluster — the
// cluster layer multiplexes all hosts into it).
type Watcher struct {
	cfg      Config
	store    *Store
	monitor  *Monitor
	recorder *Recorder

	vms      map[string]VMInfo
	lastPain map[string]sim.Time

	// feeds run at the top of every epoch, before rule evaluation;
	// the cluster layer registers one per host to sync hypervisor
	// accounting and push cumulative pain counters.
	feeds []func(now sim.Time)

	lastRankings []RankedAggressor
	lastTriples  []AggressorScore

	// alertHooks observe each alert with the aggressor ranking computed
	// for it (AddAlertHook): the autoscaler, live CLI output, tests.
	alertHooks []func(Alert, []RankedAggressor)
}

// New builds a watcher from cfg.
func New(cfg Config) *Watcher {
	// The store must retain at least the longest slow window.
	depth := DefaultDepth
	for _, r := range cfg.Rules {
		depth = max(depth, int(r.Slow/Interval)+2)
	}
	return &Watcher{
		cfg:      cfg,
		store:    NewStore(Interval, depth),
		monitor:  NewMonitor(Interval, cfg.Rules),
		recorder: &Recorder{},
		vms:      map[string]VMInfo{},
		lastPain: map[string]sim.Time{},
	}
}

// Store returns the windowed telemetry store.
func (w *Watcher) Store() *Store { return w.store }

// Monitor returns the SLO monitor.
func (w *Watcher) Monitor() *Monitor { return w.monitor }

// Recorder returns the flight recorder.
func (w *Watcher) Recorder() *Recorder { return w.recorder }

// Alerts returns every alert fired so far.
func (w *Watcher) Alerts() []Alert { return w.monitor.Alerts() }

// Rankings returns the aggressor ranking (and triples) computed for
// the most recent alert, or the latest on-demand attribution.
func (w *Watcher) Rankings() ([]RankedAggressor, []AggressorScore) {
	return w.lastRankings, w.lastTriples
}

// AddFeed registers a callback run at the top of every epoch, before
// rule evaluation. Feeds push cumulative counters into the watcher.
func (w *Watcher) AddFeed(fn func(now sim.Time)) {
	if w == nil || fn == nil {
		return
	}
	w.feeds = append(w.feeds, fn)
}

// RegisterVM records (or updates, e.g. after live migration) one VM's
// placement metadata for attribution.
func (w *Watcher) RegisterVM(info VMInfo) {
	if w == nil {
		return
	}
	w.vms[info.Name] = info
}

// VMs returns the registered VM metadata sorted by name.
func (w *Watcher) VMs() []VMInfo {
	out := make([]VMInfo, 0, len(w.vms))
	for _, v := range w.vms {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ObserveRequest feeds one served request into the SLO signal; wire it
// to the router's completion callback.
func (w *Watcher) ObserveRequest(at sim.Time, violated bool) {
	if w == nil {
		return
	}
	w.monitor.Observe(at, violated)
}

// signalTime shifts an accounting flush at an exact window boundary
// back into the window the value accrued in: a delta pushed at
// t = k×interval describes (t-interval, t], which is window k-1.
func signalTime(at sim.Time) sim.Time {
	if at > 0 {
		return at - 1
	}
	return 0
}

// FeedPain pushes one VM's cumulative pain counter (preempt-wait +
// steal across its vCPUs, in ns). The watcher differentiates against
// the previous push, clamping counter resets to zero, and rolls the
// delta into the SeriesPain window that just accrued it.
func (w *Watcher) FeedPain(at sim.Time, host, vm string, cumulative sim.Time) {
	if w == nil {
		return
	}
	delta := max(cumulative-w.lastPain[vm], 0)
	w.lastPain[vm] = cumulative
	ObservePain(w.PainSeries(host, vm), at, delta)
}

// PainSeries resolves the SeriesPain series of one (host, VM) pair,
// creating it on first use. A feed that pushes every epoch caches the
// result, re-resolving when the VM changes host, keeps its own
// previous cumulative value, and calls ObservePain.
func (w *Watcher) PainSeries(host, vm string) *Series {
	return w.store.Resolve(SeriesPain, obs.Labels{Sub: host, VM: vm})
}

// ObservePain rolls one pain delta (the growth of a cumulative counter
// since the previous push, clamped to zero at a counter reset) into a
// series from PainSeries, shifted into the window it accrued in.
func ObservePain(s *Series, at, delta sim.Time) {
	s.Observe(signalTime(at), float64(delta))
}

// AddOccupancy rolls one occupancy interval (VM vm held pCPU pcpu for
// dur, ending at at) into the SeriesOcc windows. Wire it to the
// hypervisor's occupancy observer.
func (w *Watcher) AddOccupancy(at sim.Time, host, vm, pcpu string, dur sim.Time) {
	if w == nil || dur <= 0 {
		return
	}
	ObserveOccupancy(w.OccupancySeries(host, vm, pcpu), at, dur)
}

// OccupancySeries resolves the SeriesOcc series of one (host, VM,
// pCPU) triple, creating it on first use. A feed that pushes the same
// triple every window caches the result and calls ObserveOccupancy.
// Resolve only for a positive interval, as AddOccupancy does, so the
// store holds no series that never saw a point.
func (w *Watcher) OccupancySeries(host, vm, pcpu string) *Series {
	return w.store.Resolve(SeriesOcc, obs.Labels{Sub: host, VM: vm, CPU: pcpu})
}

// ObserveOccupancy rolls one occupancy interval (dur, ending at at)
// into a series from OccupancySeries, shifted into the window it
// accrued in like every other accounting flush.
func ObserveOccupancy(s *Series, at, dur sim.Time) {
	s.Observe(signalTime(at), float64(dur))
}

// AttributeAt runs the attribution engine over the trailing window
// [now-window, now) on demand, also refreshing Rankings().
func (w *Watcher) AttributeAt(now, window sim.Time) ([]RankedAggressor, []AggressorScore) {
	if w == nil {
		return nil, nil
	}
	ranked, triples := Attribute(w.store, w.VMs(), now-window, now)
	w.lastRankings, w.lastTriples = ranked, triples
	return ranked, triples
}

// RecordInvariant captures an incident bundle for a tripped invariant
// (wire it to invariant.Checker.OnViolation via the cluster layer).
// Attribution runs over the longest rule slow window for context.
func (w *Watcher) RecordInvariant(at sim.Time, rule, detail string) {
	if w == nil {
		return
	}
	window := w.maxSlow()
	ranked, triples := w.AttributeAt(at, window)
	inc := w.recorder.Capture(at, "invariant", rule+": "+detail, w.store, at-window)
	if inc == nil {
		return
	}
	inc.Rankings = ranked
	inc.Triples = triples
}

// maxSlow returns the longest slow window among the rules, or ten
// intervals when no rules are configured.
func (w *Watcher) maxSlow() sim.Time {
	var max sim.Time
	for _, r := range w.cfg.Rules {
		if r.Slow > max {
			max = r.Slow
		}
	}
	if max == 0 {
		max = 10 * Interval
	}
	return max
}

// RunEpoch runs one watchdog epoch at the given virtual time: sync
// feeds, evaluate rules, and on a rising alert run attribution and
// capture an incident bundle. The owner drives it every Interval: the
// cluster from a coordinator barrier task (EveryBarrier), so the
// watcher reads every host with all shards parked at now, and a
// single-host rig from eng.Every. A nil *Watcher is a no-op.
func (w *Watcher) RunEpoch(now sim.Time) {
	if w == nil {
		return
	}
	for _, f := range w.feeds {
		f(now)
	}
	for _, a := range w.monitor.Evaluate(now) {
		// Rank aggressors over the fast window — the interval whose burn
		// actually tripped the rule. The slow window (used below for the
		// flight-recorder context) reaches back far enough that a steady
		// background tenant's occupancy would dilute a freshly-landed
		// bully out of the top slot.
		ranked, triples := w.AttributeAt(now, a.Rule.Fast)
		if inc := w.recorder.Capture(now, "slo-alert", a.String(), w.store, now-a.Rule.Slow); inc != nil {
			inc.Alert = &a
			inc.Rankings = ranked
			inc.Triples = triples
		}
		for _, h := range w.alertHooks {
			h(a, ranked)
		}
	}
}

// AddAlertHook registers fn to observe every alert RunEpoch fires,
// with the aggressor ranking attribution computed for it, in
// registration order. A nil *Watcher or nil fn is a no-op.
func (w *Watcher) AddAlertHook(fn func(Alert, []RankedAggressor)) {
	if w == nil || fn == nil {
		return
	}
	w.alertHooks = append(w.alertHooks, fn)
}
