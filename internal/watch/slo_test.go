package watch

import (
	"testing"

	"repro/internal/sim"
)

func testRule() Rule {
	return Rule{
		Name: "page", Budget: 0.02,
		Fast: 200 * sim.Millisecond, Slow: sim.Second, Burn: 3,
	}
}

// feed pushes n requests at time at, v of them violated.
func feed(m *Monitor, at sim.Time, n, v int) {
	for i := 0; i < n; i++ {
		m.Observe(at, i < v)
	}
}

func TestMonitorNoTrafficNoAlert(t *testing.T) {
	m := NewMonitor(100*sim.Millisecond, []Rule{testRule()})
	if got := m.Evaluate(sim.Second); len(got) != 0 {
		t.Fatalf("alerts on empty signal: %v", got)
	}
}

func TestMonitorCleanTrafficNoAlert(t *testing.T) {
	m := NewMonitor(100*sim.Millisecond, []Rule{testRule()})
	for ms := 0; ms < 1000; ms += 100 {
		feed(m, sim.Time(ms)*sim.Millisecond, 100, 1) // 1% < 2% budget
	}
	if got := m.Evaluate(sim.Second); len(got) != 0 {
		t.Fatalf("alerts on within-budget traffic: %v", got)
	}
}

func TestMonitorBothWindowsMustBurn(t *testing.T) {
	// A violation spike confined to the last 100ms trips the fast
	// window but not the slow one: no alert (that's the point of
	// multi-window burn rates).
	m := NewMonitor(100*sim.Millisecond, []Rule{testRule()})
	for ms := 0; ms < 900; ms += 100 {
		feed(m, sim.Time(ms)*sim.Millisecond, 100, 0)
	}
	feed(m, 900*sim.Millisecond, 100, 30)
	fastFrac, fastBurn, _ := m.burn(sim.Second, 200*sim.Millisecond, 0.02)
	if fastFrac != 0.15 || fastBurn < 3 {
		t.Fatalf("fast frac=%v burn=%v", fastFrac, fastBurn)
	}
	_, slowBurn, _ := m.burn(sim.Second, sim.Second, 0.02)
	if slowBurn >= 3 {
		t.Fatalf("slow burn %v unexpectedly over threshold", slowBurn)
	}
	if got := m.Evaluate(sim.Second); len(got) != 0 {
		t.Fatalf("alert despite cold slow window: %v", got)
	}
}

func TestMonitorAlertsOnSustainedBurn(t *testing.T) {
	m := NewMonitor(100*sim.Millisecond, []Rule{testRule()})
	for ms := 0; ms < 1000; ms += 100 {
		feed(m, sim.Time(ms)*sim.Millisecond, 100, 20) // 20% >> 2%
	}
	got := m.Evaluate(sim.Second)
	if len(got) != 1 {
		t.Fatalf("alerts = %v, want 1", got)
	}
	a := got[0]
	if a.Rule.Name != "page" || a.At != sim.Second {
		t.Fatalf("alert = %+v", a)
	}
	if a.SlowFrac != 0.2 || a.SlowBurn != 10 {
		t.Fatalf("slow frac=%v burn=%v, want 0.2/10", a.SlowFrac, a.SlowBurn)
	}
	if !m.Firing("page") {
		t.Fatal("rule should be firing")
	}

	// Still hot next epoch: no re-alert (rising edge only).
	feed(m, 1000*sim.Millisecond, 100, 20)
	if got := m.Evaluate(1100 * sim.Millisecond); len(got) != 0 {
		t.Fatalf("re-alerted while hot: %v", got)
	}

	// Cool down: rule re-arms, a second burst re-alerts.
	for ms := 1100; ms < 2400; ms += 100 {
		feed(m, sim.Time(ms)*sim.Millisecond, 100, 0)
		m.Evaluate(sim.Time(ms+100) * sim.Millisecond)
	}
	if m.Firing("page") {
		t.Fatal("rule should have re-armed")
	}
	for ms := 2400; ms < 3400; ms += 100 {
		feed(m, sim.Time(ms)*sim.Millisecond, 100, 20)
	}
	if got := m.Evaluate(3400 * sim.Millisecond); len(got) != 1 {
		t.Fatalf("second alert missing: %v", got)
	}
	if len(m.Alerts()) != 2 {
		t.Fatalf("total alerts = %d, want 2", len(m.Alerts()))
	}
}

func TestWatcherEndToEndAlertAndAttribution(t *testing.T) {
	eng := sim.NewEngine()
	w := New(Config{Rules: []Rule{testRule()}})
	eng.Every(Interval, func() { w.RunEpoch(eng.Now()) })

	w.RegisterVM(VMInfo{Name: "victim", Host: "h0", VCPUs: 2, Sensitive: true})
	w.RegisterVM(VMInfo{Name: "bully", Host: "h0", VCPUs: 4})
	w.RegisterVM(VMInfo{Name: "mild", Host: "h0", VCPUs: 1})
	w.RegisterVM(VMInfo{Name: "far", Host: "h1", VCPUs: 8}) // other host: never blamed

	var cum sim.Time
	w.AddFeed(func(now sim.Time) {
		// Victim suffers 40ms of pain per 100ms epoch after t=500ms.
		if now > 500*sim.Millisecond {
			cum += 40 * sim.Millisecond
		}
		w.FeedPain(now, "h0", "victim", cum)
	})
	// Bully occupies p1 hard, mild occupies p2 a little, far is busy on
	// another host entirely.
	eng.Every(100*sim.Millisecond, func() {
		now := eng.Now()
		w.AddOccupancy(now, "h0", "bully", "p1", 80*sim.Millisecond)
		w.AddOccupancy(now, "h0", "mild", "p2", 10*sim.Millisecond)
		w.AddOccupancy(now, "h1", "far", "p0", 100*sim.Millisecond)
	})
	// Requests: clean before 500ms, 30% violations after.
	eng.Every(10*sim.Millisecond, func() {
		now := eng.Now()
		for i := 0; i < 10; i++ {
			w.ObserveRequest(now, now > 500*sim.Millisecond && i < 3)
		}
	})

	var alerted []Alert
	var rankedAt []RankedAggressor
	w.AddAlertHook(func(a Alert, ranked []RankedAggressor) {
		alerted = append(alerted, a)
		rankedAt = ranked
	})
	if err := eng.Run(3 * sim.Second); err != nil {
		t.Fatal(err)
	}

	if len(alerted) == 0 {
		t.Fatal("no alert fired")
	}
	a := alerted[0]
	// Detection latency: violations start at 500ms; alert must land
	// within one slow window of that.
	if lat := a.At - 500*sim.Millisecond; lat > a.Rule.Slow {
		t.Fatalf("detection latency %v exceeds slow window %v", lat, a.Rule.Slow)
	}
	if len(rankedAt) < 2 {
		t.Fatalf("ranking too short: %v", rankedAt)
	}
	if rankedAt[0].Aggressor != "bully" || rankedAt[0].Victim != "victim" {
		t.Fatalf("top aggressor = %+v, want bully", rankedAt[0])
	}
	if rankedAt[0].Score < 2*rankedAt[1].Score {
		t.Fatalf("bully score %v not >= 2x runner-up %v", rankedAt[0].Score, rankedAt[1].Score)
	}
	for _, r := range rankedAt {
		if r.Aggressor == "far" {
			t.Fatal("cross-host VM blamed")
		}
	}

	// The alert also captured an incident bundle.
	incs := w.Recorder().Incidents()
	if len(incs) == 0 {
		t.Fatal("no incident captured")
	}
	if incs[0].Reason != "slo-alert" || incs[0].Alert == nil {
		t.Fatalf("incident = %+v", incs[0])
	}
	if len(incs[0].Rankings) == 0 || incs[0].Rankings[0].Aggressor != "bully" {
		t.Fatalf("incident rankings = %v", incs[0].Rankings)
	}
}

func TestWatcherPainCounterReset(t *testing.T) {
	w := New(Config{})
	w.FeedPain(100*sim.Millisecond, "h0", "vm", 50*sim.Millisecond)
	w.FeedPain(200*sim.Millisecond, "h0", "vm", 10*sim.Millisecond) // reset: clamp to 0
	w.FeedPain(300*sim.Millisecond, "h0", "vm", 30*sim.Millisecond)

	s := w.Store().Series(SeriesPain, labelsFor("h0", "vm"))
	if s == nil {
		t.Fatal("pain series missing")
	}
	r := s.RollupBetween(0, 400*sim.Millisecond)
	// 50ms + 0 (clamped) + 20ms.
	if want := float64(70 * sim.Millisecond); r.Sum != want {
		t.Fatalf("pain sum = %v, want %v", r.Sum, want)
	}
}
