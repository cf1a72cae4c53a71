package watch

import (
	"fmt"

	"repro/internal/sim"
)

// Alert is one burn-rate rule firing (a rising edge; the monitor does
// not re-alert while a rule stays hot).
type Alert struct {
	Rule Rule
	At   sim.Time

	// FastBurn/SlowBurn are the burn rates that tripped the rule, and
	// FastFrac/SlowFrac the underlying violation fractions.
	FastBurn, SlowBurn float64
	FastFrac, SlowFrac float64
	// Requests is the request count in the slow window at alert time.
	Requests int64
}

func (a Alert) String() string {
	return fmt.Sprintf("[%s] ALERT %s: burn fast=%.2f slow=%.2f (frac fast=%.4f slow=%.4f, budget %g, n=%d)",
		a.At, a.Rule.Name, a.FastBurn, a.SlowBurn, a.FastFrac, a.SlowFrac, a.Rule.Budget, a.Requests)
}

// Monitor evaluates a set of burn-rate rules online against one
// violation signal: each served request is Observe()d as met (0) or
// violated (1), folded into a windowed series, and Evaluate() checks
// every rule's fast+slow windows against its burn threshold.
type Monitor struct {
	rules  []Rule
	signal *Series
	firing []bool
	alerts []Alert
}

// NewMonitor builds a monitor for rules over windows of the given
// interval. The signal ring is sized to cover the longest slow window
// (plus slack so the window trailing `now` is never evicted early).
func NewMonitor(interval sim.Time, rules []Rule) *Monitor {
	if interval <= 0 {
		panic("watch: NewMonitor needs a positive interval")
	}
	var maxSlow sim.Time
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			panic(err.Error())
		}
		if r.Slow > maxSlow {
			maxSlow = r.Slow
		}
	}
	depth := int(maxSlow/interval) + 2
	if depth < 2 {
		depth = 2
	}
	return &Monitor{
		rules:  rules,
		signal: NewSeries(interval, depth),
		firing: make([]bool, len(rules)),
	}
}

// Rules returns the monitored rules.
func (m *Monitor) Rules() []Rule { return m.rules }

// Observe records one served request at time at: violated is true when
// the request missed its SLO.
func (m *Monitor) Observe(at sim.Time, violated bool) {
	v := 0.0
	if violated {
		v = 1
	}
	m.signal.Observe(at, v)
}

// burn returns the violation fraction and burn rate over [now-win, now)
// for a rule with the given budget, plus the request count seen.
func (m *Monitor) burn(now, win sim.Time, budget float64) (frac, burn float64, n int64) {
	w := m.signal.RollupBetween(now-win, now)
	if w.Count == 0 {
		return 0, 0, 0
	}
	frac = w.Sum / float64(w.Count)
	return frac, frac / budget, w.Count
}

// Evaluate checks every rule at virtual time now and returns the
// alerts that fired on this pass (rising edges only). A rule re-arms
// once either window's burn rate drops back under its threshold.
func (m *Monitor) Evaluate(now sim.Time) []Alert {
	var fired []Alert
	for i, r := range m.rules {
		fastFrac, fastBurn, _ := m.burn(now, r.Fast, r.Budget)
		slowFrac, slowBurn, n := m.burn(now, r.Slow, r.Budget)
		hot := n > 0 && fastBurn >= r.Burn && slowBurn >= r.Burn
		if hot && !m.firing[i] {
			a := Alert{
				Rule: r, At: now,
				FastBurn: fastBurn, SlowBurn: slowBurn,
				FastFrac: fastFrac, SlowFrac: slowFrac,
				Requests: n,
			}
			m.alerts = append(m.alerts, a)
			fired = append(fired, a)
		}
		m.firing[i] = hot
	}
	return fired
}

// Alerts returns every alert fired so far, in order.
func (m *Monitor) Alerts() []Alert { return m.alerts }

// AnyFiring reports whether any rule is currently hot — the level
// signal (as opposed to Evaluate's rising edges) reactive control
// loops like the cluster's replica autoscaler poll between epochs.
func (m *Monitor) AnyFiring() bool {
	for _, f := range m.firing {
		if f {
			return true
		}
	}
	return false
}

// Firing reports whether the named rule is currently hot.
func (m *Monitor) Firing(name string) bool {
	for i, r := range m.rules {
		if r.Name == name {
			return m.firing[i]
		}
	}
	return false
}
