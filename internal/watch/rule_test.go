package watch

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestParseRuleFull(t *testing.T) {
	r, err := ParseRule("page:budget=0.02,fast=500ms,slow=2s,burn=4")
	if err != nil {
		t.Fatal(err)
	}
	want := Rule{Name: "page", Budget: 0.02, Fast: 500 * sim.Millisecond, Slow: sim.Time(2 * time.Second), Burn: 4}
	if r != want {
		t.Fatalf("rule = %+v, want %+v", r, want)
	}
}

func TestParseRuleDefaults(t *testing.T) {
	r, err := ParseRule("slo: BUDGET=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Fast != DefaultFastWindow || r.Slow != DefaultSlowWindow || r.Burn != DefaultBurn {
		t.Fatalf("defaults not applied: %+v", r)
	}
}

func TestParseRuleErrors(t *testing.T) {
	cases := []string{
		"",                             // no colon
		"noname",                       // no colon
		":budget=0.1",                  // empty name
		"x:fast=1s",                    // budget missing
		"x:budget=0",                   // budget out of range
		"x:budget=1",                   // budget out of range
		"x:budget=0.1,budget=0.2",      // duplicate field
		"x:budget=0.1,fast=0s",         // fast not positive
		"x:budget=0.1,fast=2s,slow=1s", // slow < fast
		"x:budget=0.1,burn=0",          // burn not positive
		"x:budget=0.1,bogus=3",         // unknown field
		"x:budget=abc",                 // bad float
		"x:budget=0.1,fast=xyz",        // bad duration
		"x:budget=0.1,",                // empty field
		"a b:budget=0.1",               // reserved char in name
		"x:budget=0.1,burn=+Inf",       // non-finite burn
	}
	for _, c := range cases {
		if _, err := ParseRule(c); err == nil {
			t.Errorf("ParseRule(%q) accepted invalid input", c)
		}
	}
}

func TestParseRulesList(t *testing.T) {
	rs, err := ParseRules("a:budget=0.1; b:budget=0.2,burn=3;")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Name != "a" || rs[1].Name != "b" {
		t.Fatalf("rules = %+v", rs)
	}
	if _, err := ParseRules("a:budget=0.1;a:budget=0.2"); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"page:budget=0.02,fast=500ms,slow=2s,burn=4",
		"slo:budget=0.1",
		"t:budget=0.001,fast=1ms,slow=1ms,burn=0.5",
	} {
		r, err := ParseRule(s)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", r.String(), err)
		}
		if r != r2 {
			t.Fatalf("round trip %q -> %+v -> %+v", s, r, r2)
		}
	}
}

// FuzzParseRule drives the parser with arbitrary input; whatever
// parses must validate, render, and round-trip to an equal rule.
func FuzzParseRule(f *testing.F) {
	for _, seed := range []string{
		"page:budget=0.02,fast=500ms,slow=2s,burn=4",
		"slo:budget=0.1",
		"x:budget=0.5,burn=1.5",
		"a:budget=0.001,fast=10ms,slow=10m,burn=14.4",
		"bad:burn=2",
		":budget=0.1",
		"x:budget=0.1,fast=-1s",
		"x:budget=NaN",
		"x:budget=0.1,slow=1h,fast=59m59s",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRule(s)
		if err != nil {
			return
		}
		if verr := r.Validate(); verr != nil {
			t.Fatalf("parsed rule fails validation: %q -> %+v: %v", s, r, verr)
		}
		if math.IsInf(r.Budget, 0) || math.IsInf(r.Burn, 0) {
			t.Fatalf("parsed rule has an infinite threshold: %q -> %+v", s, r)
		}
		r2, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("rendered rule does not re-parse: %q -> %q: %v", s, r.String(), err)
		}
		if r != r2 {
			t.Fatalf("round trip changed rule: %q -> %+v -> %+v", s, r, r2)
		}
	})
}
