package cluster

import (
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/watch"
)

// watchConfig builds a deliberately painful single-host rig: a
// sensitive 2-vCPU server sharing 4 pCPUs with two fat CPU hogs, a
// tight SLO, and a burn-rate rule the contention will trip.
func watchConfig() Config {
	cfg := DefaultConfig()
	cfg.Hosts = 1
	cfg.Overcommit = 4
	cfg.Duration = 6 * sim.Second
	cfg.Drain = 2 * sim.Second
	cfg.SLO = 10 * sim.Millisecond
	cfg.VMs = []VMSpec{
		{Name: "srv0", Kind: KindServer, VCPUs: 2, Sensitive: true, Pressure: 0.8},
		{Name: "hog0", Kind: KindAntagonist, VCPUs: 4, Pressure: 4},
		{Name: "hog1", Kind: KindAntagonist, VCPUs: 4, Pressure: 4},
	}
	rule, _ := watch.ParseRule("page:budget=0.05,fast=500ms,slow=2s,burn=2")
	cfg.Spans = span.NewTracer()
	cfg.Watch = &watch.Config{Rules: []watch.Rule{rule}}
	return cfg
}

func TestClusterWatchWiring(t *testing.T) {
	cfg := watchConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := c.Watcher()
	if w == nil {
		t.Fatal("Watch config set but Watcher() is nil")
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}

	vms := w.VMs()
	if len(vms) != 3 {
		t.Fatalf("registered %d VMs, want 3: %+v", len(vms), vms)
	}
	for _, info := range vms {
		if info.Host != c.hosts[0].Name() {
			t.Fatalf("%s registered on %q", info.Name, info.Host)
		}
	}

	// The feeds must have populated both attribution inputs.
	host := c.hosts[0].Name()
	if s := w.Store().Series(watch.SeriesPain, obs.Labels{Sub: host, VM: "srv0"}); s == nil {
		t.Fatal("no pain series for srv0")
	}
	occ := 0
	w.Store().Visit(func(name string, l obs.Labels, s *watch.Series) {
		if name == watch.SeriesOcc {
			occ++
		}
	})
	if occ == 0 {
		t.Fatal("no occupancy series recorded")
	}

	// 10 pressure-4 vCPUs against a 10ms SLO on 4 pCPUs: the burn-rate
	// rule must fire, and the incident bundle must blame a hog, not the
	// victim itself.
	if len(w.Alerts()) == 0 {
		t.Fatal("no SLO alert fired under 2.5x overcommit")
	}
	ranked, _ := w.Rankings()
	if len(ranked) == 0 {
		t.Fatal("alert fired but attribution ranked no aggressors")
	}
	top := ranked[0]
	if top.Aggressor != "hog0" && top.Aggressor != "hog1" {
		t.Fatalf("top aggressor = %q, want a hog; ranking: %+v", top.Aggressor, ranked)
	}
	if top.Victim != "srv0" {
		t.Fatalf("top victim = %q, want srv0", top.Victim)
	}

	incs := w.Recorder().Incidents()
	if len(incs) == 0 {
		t.Fatal("alert fired but no incident bundle captured")
	}
	inc := incs[0]
	if inc.Reason != "slo-alert" || inc.Alert == nil {
		t.Fatalf("incident = %q alert=%v, want slo-alert with alert attached", inc.Reason, inc.Alert)
	}
	if len(inc.Series) == 0 || len(inc.Spans) == 0 {
		t.Fatalf("incident bundle missing telemetry: %d series, %d spans", len(inc.Series), len(inc.Spans))
	}
}

func TestClusterWatchSurvivesMigration(t *testing.T) {
	// Two hosts with migration on: after srv0 escapes the hogs, the
	// watcher must show its new placement and keep feeding pain without
	// tripping on the successor instance's counter reset.
	cfg := watchConfig()
	cfg.Hosts = 2
	cfg.Policy = FirstFit // pack everyone onto h0 so migration has a reason
	cfg.Migration = true
	cfg.Duration = 10 * sim.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Skip("no migration happened under this seed; nothing to verify")
	}
	var srv watch.VMInfo
	for _, info := range c.Watcher().VMs() {
		if info.Name == "srv0" {
			srv = info
		}
	}
	if srv.Name == "" {
		t.Fatal("srv0 not registered with watcher")
	}
	moved := false
	for _, hd := range c.servers {
		if hd.Spec.Name == "srv0" && hd.gen > 0 {
			moved = true
			if srv.Host != hd.host.Name() {
				t.Fatalf("watcher thinks srv0 is on %q, cluster says %q", srv.Host, hd.host.Name())
			}
		}
	}
	if !moved {
		t.Skip("srv0 did not migrate under this seed")
	}
}

func TestClusterWatchDisabledStaysNil(t *testing.T) {
	cfg := watchConfig()
	cfg.Watch = nil
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Watcher() != nil {
		t.Fatal("no Watch config but Watcher() is non-nil")
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestViolationsReachWatcherAtBarrier pins violation routing: a host
// violation and a control-plane violation tripped in one window reach
// the watcher only at the next barrier (an incident capture reads every
// host, so it must not run mid-window), in window order — the control
// shard first, then the hosts — not in time order.
func TestViolationsReachWatcherAtBarrier(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 2
	cfg.Duration = sim.Second
	cfg.Drain = 200 * sim.Millisecond
	cfg.VMs = []VMSpec{
		StandardVM("srv0", KindServer, 2, 0),
		StandardVM("ant0", KindAntagonist, 2, 0),
	}
	cfg.Invariants = true
	cfg.Watch = &watch.Config{}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := c.Watcher()
	invariantIncidents := func() []string {
		var out []string
		for _, inc := range w.Recorder().Incidents() {
			if inc.Reason == "invariant" {
				out = append(out, inc.Detail)
			}
		}
		return out
	}
	// One window (start, start+lookahead]: host 1 trips first, the
	// control shard later, and host 1 then looks for either at the
	// watcher while the window is still running.
	const start = 300 * sim.Millisecond
	host := c.hosts[1]
	host.eng.At(start+50*sim.Microsecond, func() {
		host.checker.Record(host.eng.Now(), "test-host", "host trip")
	})
	c.ctl.At(start+200*sim.Microsecond, func() {
		c.checker.Record(c.ctl.Now(), "test-ctl", "control-plane trip")
	})
	midWindow := false
	host.eng.At(start+240*sim.Microsecond, func() {
		midWindow = true
		if got := invariantIncidents(); len(got) != 0 {
			t.Errorf("watcher saw %q mid-window", got)
		}
	})
	var atBarrier []string
	c.sh.OnBarrier(func(now sim.Time) bool {
		if now == start+lookahead {
			atBarrier = invariantIncidents()
		}
		return false
	})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !midWindow {
		t.Fatal("mid-window check never ran")
	}
	want := []string{"test-ctl: control-plane trip", "test-host: host trip"}
	if !slices.Equal(atBarrier, want) {
		t.Fatalf("invariant incidents at the barrier ending the window: %q, want %q", atBarrier, want)
	}
	if got := invariantIncidents(); !slices.Equal(got, want) || res.Violations != 2 {
		t.Fatalf("run ended with incidents %q and %d violations, want %q and 2", got, res.Violations, want)
	}
}
