package fault

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestParsePlanZero(t *testing.T) {
	for _, spec := range []string{"", "none", "off", "  NONE  "} {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		if !p.Zero() {
			t.Fatalf("ParsePlan(%q) = %+v, want zero plan", spec, p)
		}
	}
	if s := (Plan{}).String(); s != "none" {
		t.Fatalf("zero plan renders %q, want none", s)
	}
}

func TestParsePlanFields(t *testing.T) {
	p, err := ParsePlan("drop-sa=0.1, dup-sa=0.05, delay-sa=30us, drop-wake=0.2, ack-loss=0.01, ack-delay=10us, stale-runstate=1ms, tick-jitter=0.25, stall-p=0.1, stall-for=200us, blackout-every=50ms, blackout-for=2ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.DropSA != 0.1 || p.DupSA != 0.05 || p.DelaySA != 30*sim.Microsecond {
		t.Fatalf("SA fields wrong: %+v", p)
	}
	if p.DropWake != 0.2 || p.AckLoss != 0.01 || p.AckDelay != 10*sim.Microsecond {
		t.Fatalf("wake/ack fields wrong: %+v", p)
	}
	if p.StaleRunstate != sim.Millisecond || p.TickJitter != 0.25 {
		t.Fatalf("stale/tick fields wrong: %+v", p)
	}
	if p.StallProb != 0.1 || p.StallFor != 200*sim.Microsecond {
		t.Fatalf("stall fields wrong: %+v", p)
	}
	if p.BlackoutEvery != 50*sim.Millisecond || p.BlackoutFor != 2*sim.Millisecond {
		t.Fatalf("blackout fields wrong: %+v", p)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"drop-sa",                 // not key=value
		"bogus=1",                 // unknown key
		"drop-sa=1.5",             // probability out of range
		"drop-sa=x",               // bad float
		"delay-sa=zz",             // bad duration
		"delay-sa=-5us",           // negative duration
		"drop-sa=0.1,drop-sa=0.2", // duplicate key
		"blackout-every=1ms",      // blackout period without duration
		"stall-p=0.5",             // stall probability without duration
		"drop-sa=NaN",             // non-finite probability
		"drop-sa=0.1,",            // empty field
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) succeeded, want error", spec)
		}
	}
}

func TestPlanStringRoundTrip(t *testing.T) {
	plans := []Plan{
		{},
		LossPlan(0.1),
		{DropSA: 0.25, DelayWake: 40 * sim.Microsecond, TickJitter: 0.5},
		{BlackoutEvery: 100 * sim.Millisecond, BlackoutFor: sim.Millisecond},
	}
	for _, p := range plans {
		back, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("round trip of %q: %v", p.String(), err)
		}
		if back != p {
			t.Fatalf("round trip of %q: got %+v, want %+v", p.String(), back, p)
		}
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if drop, delays := in.SADelivery(); drop || delays != nil {
		t.Fatal("nil injector faulted an SA")
	}
	if drop, delays := in.WakeDelivery(); drop || delays != nil {
		t.Fatal("nil injector faulted a wake")
	}
	if lost, d := in.AckFault(); lost || d != 0 {
		t.Fatal("nil injector faulted an ack")
	}
	if in.RunstateMaxAge() != 0 || in.TickDelay(sim.Millisecond) != 0 || in.MigratorStall() != 0 {
		t.Fatal("nil injector returned non-zero fault parameters")
	}
	if e, d := in.BlackoutSchedule(); e != 0 || d != 0 {
		t.Fatal("nil injector scheduled blackouts")
	}
	if in.Total() != 0 || in.CountsLine() != "" {
		t.Fatal("nil injector counted injections")
	}
	in.RecordStaleServe() // must not panic
	reg := obs.NewRegistry()
	in.AttachMetrics(reg)
	if reg.Len() != 0 {
		t.Fatal("nil injector registered metrics")
	}
}

func TestInjectorDeterminism(t *testing.T) {
	draw := func() []int64 {
		in := NewInjector(LossPlan(0.3), 42)
		for i := 0; i < 1000; i++ {
			in.SADelivery()
			in.WakeDelivery()
			in.AckFault()
			in.TickDelay(4 * sim.Millisecond)
			in.MigratorStall()
		}
		var counts []int64
		for k := Kind(1); k < kindMax; k++ {
			counts = append(counts, in.Count(k))
		}
		return counts
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at kind %v: %d vs %d", Kind(i+1), a[i], b[i])
		}
	}
}

func TestInjectorStreamsIndependent(t *testing.T) {
	// Enabling wake faults must not change the SA draws.
	saOnly := NewInjector(Plan{DropSA: 0.5}, 7)
	both := NewInjector(Plan{DropSA: 0.5, DropWake: 0.5}, 7)
	for i := 0; i < 500; i++ {
		d1, _ := saOnly.SADelivery()
		both.WakeDelivery()
		d2, _ := both.SADelivery()
		if d1 != d2 {
			t.Fatalf("SA stream perturbed by wake faults at draw %d", i)
		}
	}
}

func TestInjectorRates(t *testing.T) {
	in := NewInjector(Plan{DropSA: 0.2}, 99)
	const n = 20000
	drops := 0
	for i := 0; i < n; i++ {
		if d, _ := in.SADelivery(); d {
			drops++
		}
	}
	got := float64(drops) / n
	if got < 0.17 || got > 0.23 {
		t.Fatalf("drop rate %.3f, want ~0.2", got)
	}
}

func TestInjectorCountsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	in := NewInjector(Plan{DropSA: 1}, 1)
	in.AttachMetrics(reg)
	for i := 0; i < 5; i++ {
		if d, _ := in.SADelivery(); !d {
			t.Fatal("drop-sa=1 did not drop")
		}
	}
	if in.Count(KindSADrop) != 5 || in.Total() != 5 {
		t.Fatalf("counts wrong: %d/%d", in.Count(KindSADrop), in.Total())
	}
	if v := obs.CounterValue(reg, "fault_injected_total", obs.Labels{Sub: "fault", Kind: "sa-drop"}); v != 5 {
		t.Fatalf("metric = %d, want 5", v)
	}
	if line := in.CountsLine(); !strings.Contains(line, "sa-drop=5") {
		t.Fatalf("CountsLine %q missing sa-drop=5", line)
	}
}

func TestDupDeliveryOrdering(t *testing.T) {
	in := NewInjector(Plan{DupSA: 1, DelaySA: 10 * sim.Microsecond}, 3)
	for i := 0; i < 100; i++ {
		drop, delays := in.SADelivery()
		if drop {
			t.Fatal("dup plan dropped")
		}
		if len(delays) != 2 {
			t.Fatalf("dup plan returned %d deliveries, want 2", len(delays))
		}
		if delays[1] <= delays[0] {
			t.Fatalf("duplicate at %v not after original at %v", delays[1], delays[0])
		}
	}
}
