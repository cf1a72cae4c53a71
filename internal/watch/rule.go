package watch

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/kv"
	"repro/internal/sim"
)

// Rule is one multi-window burn-rate SLO alert rule in the Google SRE
// style: the alert fires when the error-budget burn rate exceeds Burn
// over BOTH the fast window (responsiveness) and the slow window
// (sustained impact), which keeps detection quick without paging on
// one-interval blips.
//
// The signal is the router's per-request violation stream: each served
// request contributes a 0 (met SLO) or 1 (violated). Budget is the
// violation fraction the SLO tolerates; burn rate is the observed
// fraction divided by the budget, so burn 1.0 consumes the budget
// exactly as provisioned and burn 4.0 exhausts it four times too fast.
type Rule struct {
	// Name identifies the rule in alerts and incident bundles.
	Name string
	// Budget is the tolerated violation fraction, in (0, 1).
	Budget float64
	// Fast and Slow are the two evaluation windows, Fast <= Slow.
	Fast, Slow sim.Time
	// Burn is the burn-rate threshold both windows must exceed.
	Burn float64
}

// Defaults applied by ParseRule when a field is omitted.
const (
	DefaultFastWindow = sim.Time(time.Second)
	DefaultSlowWindow = sim.Time(5 * time.Second)
	DefaultBurn       = 2.0
)

// Fields is the rule's key=value table, in render order; the load
// spec's alert section parses through it too.
func (r *Rule) Fields() kv.Table {
	return kv.Table{
		kv.Bind("budget", &r.Budget),
		kv.Bind("fast", &r.Fast),
		kv.Bind("slow", &r.Slow),
		kv.Bind("burn", &r.Burn),
	}
}

// String renders the rule in the exact syntax ParseRule accepts, with
// every field explicit: "name:budget=0.02,fast=500ms,slow=2s,burn=4".
// ParseRule(r.String()) round-trips to an equal rule.
func (r Rule) String() string { return r.Name + ":" + r.Fields().String() }

// Validate reports whether the rule's fields are coherent.
func (r Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("watch: rule needs a name")
	}
	if strings.ContainsAny(r.Name, ":,;= \t\n") {
		return fmt.Errorf("watch: rule name %q contains reserved characters", r.Name)
	}
	if !(r.Budget > 0 && r.Budget < 1) {
		return fmt.Errorf("watch: rule %s: budget %v outside (0, 1)", r.Name, r.Budget)
	}
	if r.Fast <= 0 {
		return fmt.Errorf("watch: rule %s: fast window %v not positive", r.Name, r.Fast)
	}
	if r.Slow < r.Fast {
		return fmt.Errorf("watch: rule %s: slow window %v shorter than fast %v", r.Name, r.Slow, r.Fast)
	}
	if !(r.Burn > 0) {
		return fmt.Errorf("watch: rule %s: burn threshold %v not positive", r.Name, r.Burn)
	}
	return nil
}

// ParseRule parses one rule of the form
//
//	name:budget=0.02[,fast=500ms][,slow=2s][,burn=4]
//
// where the fields after the colon follow the kv grammar. budget is
// required; fast, slow and burn fall back to
// DefaultFastWindow/DefaultSlowWindow/DefaultBurn. Durations use Go
// syntax ("500ms", "2s"). Whitespace around the rule is ignored.
func ParseRule(s string) (Rule, error) {
	s = strings.TrimSpace(s)
	name, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Rule{}, fmt.Errorf("watch: rule %q: want name:key=value,...", s)
	}
	// The grammar never yields NaN, so a NaN budget after parsing
	// means the field was omitted.
	r := Rule{
		Name:   strings.TrimSpace(name),
		Budget: math.NaN(),
		Fast:   DefaultFastWindow,
		Slow:   DefaultSlowWindow,
		Burn:   DefaultBurn,
	}
	if err := r.Fields().Parse(rest); err != nil {
		return Rule{}, fmt.Errorf("watch: rule %q: %w", s, err)
	}
	if math.IsNaN(r.Budget) {
		return Rule{}, fmt.Errorf("watch: rule %q: budget is required", s)
	}
	if err := r.Validate(); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// ParseRules parses a semicolon-separated rule list. Empty segments
// (a trailing ";") are skipped; rule names must be unique.
func ParseRules(s string) ([]Rule, error) {
	var out []Rule
	names := map[string]bool{}
	for _, seg := range strings.Split(s, ";") {
		if strings.TrimSpace(seg) == "" {
			continue
		}
		r, err := ParseRule(seg)
		if err != nil {
			return nil, err
		}
		if names[r.Name] {
			return nil, fmt.Errorf("watch: duplicate rule name %q", r.Name)
		}
		names[r.Name] = true
		out = append(out, r)
	}
	return out, nil
}
