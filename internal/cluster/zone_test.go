package cluster

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/watch"
)

// zoneConfig is a 2-zone rig sized for unit-test wall-clock: zones ×
// hostsPer hosts, one server and one antagonist admitted per zone.
func zoneConfig(zones, hostsPer int) Config {
	cfg := DefaultConfig()
	cfg.Hosts = zones * hostsPer
	cfg.Topology = topology.Uniform(zones, hostsPer)
	cfg.Policy = InterferenceAware
	cfg.Duration = 8 * sim.Second
	cfg.Drain = 2 * sim.Second
	cfg.Invariants = true
	cfg.VMs = StandardMix(2*zones, 2, zones, 2, 400*sim.Millisecond)
	return cfg
}

// burnRule is the watchdog rule the autoscaler tests scale on.
func burnRule() watch.Rule {
	return watch.Rule{Name: "slo-burn", Budget: 0.02, Fast: 500 * sim.Millisecond, Slow: 2 * sim.Second, Burn: 3}
}

// serverTemplate is the replica spec the autoscaler clones.
func serverTemplate() VMSpec {
	return VMSpec{Name: "srv-auto", Kind: KindServer, VCPUs: 2, Pressure: 0.8, Sensitive: true}
}

func TestSingleZoneTopologyDegenerates(t *testing.T) {
	// Property: with exactly one zone the two-level control plane must
	// be invisible — nil Topology, an explicit Flat topology, and a
	// 1-zone Uniform topology all produce the identical Result.
	base := shortConfig()
	base.Policy = InterferenceAware
	base.Migration = true
	want := fmt.Sprintf("%+v", mustRun(t, base))

	flat := base
	flat.Topology = topology.Flat(base.Hosts)
	if got := fmt.Sprintf("%+v", mustRun(t, flat)); got != want {
		t.Errorf("explicit Flat topology diverged from nil topology:\n%s\n%s", got, want)
	}

	uni := base
	uni.Topology = topology.Uniform(1, base.Hosts)
	if got := fmt.Sprintf("%+v", mustRun(t, uni)); got != want {
		t.Errorf("1-zone Uniform topology diverged from nil topology:\n%s\n%s", got, want)
	}
}

func TestTopologyMustCoverHosts(t *testing.T) {
	cfg := shortConfig()
	cfg.Topology = topology.Uniform(2, cfg.Hosts) // twice the hosts
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a topology that does not match Hosts")
	}
}

func TestMultiZonePlacementUsesAllZones(t *testing.T) {
	cfg := zoneConfig(2, 4)
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Zones != 2 {
		t.Fatalf("result reports %d zones, want 2", res.Zones)
	}
	for _, z := range c.zones {
		if len(z.servers) == 0 {
			t.Errorf("zone %s got no server replicas — the zone picker never chose it", z.name)
		}
		if z.routed == 0 {
			t.Errorf("zone %s served no traffic — the partitioned router never chose it", z.name)
		}
	}
	if res.Unserved != 0 || res.Violations != 0 {
		t.Fatalf("unserved=%d violations=%d", res.Unserved, res.Violations)
	}
}

func TestZoneOutageFailsOverAndNeverRoutesToCordonedZone(t *testing.T) {
	cfg := zoneConfig(2, 4)
	cfg.ZoneOutages = []ZoneOutage{{Zone: 1, At: 3 * sim.Second, For: 800 * sim.Millisecond}}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Probe the dark zone's router counter at every 100ms barrier: over
	// any interval that begins and ends cordoned, not one request may
	// have been routed into it.
	z1 := c.zones[1]
	var lastRouted int64
	wasCordoned := false
	leaked := false
	c.sh.EveryBarrier(100*sim.Millisecond, "outage-probe", func() {
		if wasCordoned && z1.cordoned && z1.routed != lastRouted {
			leaked = true
		}
		wasCordoned = z1.cordoned
		lastRouted = z1.routed
	})
	res, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ZoneOutages != 1 {
		t.Fatalf("recorded %d zone outages, want 1", res.ZoneOutages)
	}
	if res.Failover == 0 {
		t.Fatal("no requests routed during the outage — failover never happened")
	}
	if leaked {
		t.Fatal("router sent requests into the cordoned zone during the outage")
	}
	if res.Unserved != 0 {
		t.Fatalf("%d requests lost across the outage", res.Unserved)
	}
	if res.Violations != 0 {
		t.Fatalf("%d invariant violations across the outage", res.Violations)
	}
}

// autoscaleConfig overloads a 2-zone rig during a zone outage so the
// burn-rate alert trips: one server per zone (~1 req/ms capacity each)
// against a 700µs mean arrival (~1.4 req/ms) — fine with both zones,
// saturating when one goes dark at t=3s.
func autoscaleConfig() Config {
	cfg := DefaultConfig()
	cfg.Hosts = 8
	cfg.Topology = topology.Uniform(2, 4)
	cfg.Policy = InterferenceAware
	cfg.Duration = 10 * sim.Second
	cfg.Drain = 3 * sim.Second
	cfg.Invariants = true
	cfg.Arrival = 700 * sim.Microsecond
	cfg.SLO = 25 * sim.Millisecond
	cfg.VMs = StandardMix(2, 2, 2, 2, 400*sim.Millisecond)
	cfg.ZoneOutages = []ZoneOutage{{Zone: 1, At: 3 * sim.Second, For: 1 * sim.Second}}
	cfg.Watch = &watch.Config{Rules: []watch.Rule{burnRule()}}
	cfg.Autoscale = &AutoscaleConfig{
		Template:  serverTemplate(),
		Max:       6,
		Step:      1,
		Interval:  250 * sim.Millisecond,
		Cooldown:  1 * sim.Second,
		DownAfter: 1 * sim.Second,
	}
	return cfg
}

func TestAutoscalerScalesUpOnBurnAndRestores(t *testing.T) {
	res := mustRun(t, autoscaleConfig())
	if res.Alerts == 0 {
		t.Fatal("the outage never tripped the burn-rate alert")
	}
	if res.ScaleUps == 0 {
		t.Fatal("autoscaler never scaled up on the firing alert")
	}
	if res.ScaleDowns != res.ScaleUps {
		t.Fatalf("autoscaler added %d replicas but drained %d — count not restored", res.ScaleUps, res.ScaleDowns)
	}
	if res.Replicas != 2 {
		t.Fatalf("run ended with %d live replicas, want the configured 2", res.Replicas)
	}
	if res.Unserved != 0 {
		t.Fatalf("%d requests lost across scale events", res.Unserved)
	}
	if res.Violations != 0 {
		t.Fatalf("%d invariant violations across scale events", res.Violations)
	}
}

func TestAutoscalerCooldownPreventsFlapping(t *testing.T) {
	// Sustained overload with no outage: the alert fires for seconds on
	// end, but scale-ups must stay paced by the cooldown — at most one
	// trigger per cooldown window, never past Max.
	cfg := autoscaleConfig()
	cfg.ZoneOutages = nil
	cfg.Arrival = 400 * sim.Microsecond // ~2.5 req/ms vs ~2 req/ms capacity
	cfg.Duration = 8 * sim.Second
	cfg.Autoscale.Cooldown = 2 * sim.Second
	res := mustRun(t, cfg)
	if res.ScaleUps == 0 {
		t.Fatal("sustained overload never scaled up")
	}
	// 8s of firing with a 2s cooldown allows at most 4 triggers of
	// Step=1 each; more means the cooldown is not being honored.
	if res.ScaleUps > 4 {
		t.Fatalf("%d scale-ups in 8s with a 2s cooldown — flapping", res.ScaleUps)
	}
	if res.Replicas > cfg.Autoscale.Max {
		t.Fatalf("%d live replicas exceeds Max=%d", res.Replicas, cfg.Autoscale.Max)
	}
	if res.Unserved != 0 || res.Violations != 0 {
		t.Fatalf("unserved=%d violations=%d", res.Unserved, res.Violations)
	}
}

func TestAutoscalerNeverDrainsLastReplica(t *testing.T) {
	// One lightly-loaded replica and an alert that never fires: the
	// quiet timer urges a scale-down at every tick, but the floor is
	// absolute — the last live replica is never cordoned.
	cfg := DefaultConfig()
	cfg.Duration = 6 * sim.Second
	cfg.Drain = 2 * sim.Second
	cfg.Invariants = true
	cfg.Arrival = 2 * sim.Millisecond
	cfg.VMs = StandardMix(1, 2, 1, 2, 400*sim.Millisecond)
	cfg.Watch = &watch.Config{Rules: []watch.Rule{burnRule()}}
	cfg.Autoscale = &AutoscaleConfig{
		Template:  serverTemplate(),
		Min:       0, // even an explicit zero must floor at one replica
		Max:       4,
		Step:      1,
		Interval:  250 * sim.Millisecond,
		Cooldown:  2 * sim.Second,
		DownAfter: 500 * sim.Millisecond,
	}
	res := mustRun(t, cfg)
	if res.ScaleDowns != 0 {
		t.Fatalf("autoscaler drained %d replicas with only one live", res.ScaleDowns)
	}
	if res.Replicas != 1 {
		t.Fatalf("run ended with %d live replicas, want 1", res.Replicas)
	}
	if res.Unserved != 0 || res.Violations != 0 {
		t.Fatalf("unserved=%d violations=%d", res.Unserved, res.Violations)
	}
}

func TestAutoscalerRidesOutHostBlackout(t *testing.T) {
	// Host blackouts keep firing while the autoscaler is admitting and
	// draining replicas; the conservation and single-placement
	// invariants must hold throughout.
	cfg := autoscaleConfig()
	cfg.HostBlackoutEvery = 2 * sim.Second
	cfg.HostBlackoutFor = 60 * sim.Millisecond
	res := mustRun(t, cfg)
	if res.Blackouts == 0 {
		t.Fatal("no host blackouts fired")
	}
	if res.ScaleUps == 0 {
		t.Fatal("autoscaler never scaled up under blackout chaos")
	}
	if res.Unserved != 0 {
		t.Fatalf("%d requests lost under blackouts + scaling", res.Unserved)
	}
	if res.Violations != 0 {
		t.Fatalf("%d invariant violations under blackouts + scaling", res.Violations)
	}
}

func TestZoneOutageValidation(t *testing.T) {
	cases := []struct {
		name string
		out  ZoneOutage
	}{
		{"zone out of range", ZoneOutage{Zone: 2, At: sim.Second, For: sim.Second}},
		{"negative zone", ZoneOutage{Zone: -1, At: sim.Second, For: sim.Second}},
		{"zero duration", ZoneOutage{Zone: 1, At: sim.Second}},
	}
	for _, tc := range cases {
		cfg := zoneConfig(2, 2)
		cfg.ZoneOutages = []ZoneOutage{tc.out}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the outage", tc.name)
		}
	}
}

func TestAutoscaleConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no watch rules", func(c *Config) { c.Watch = nil }},
		{"non-server template", func(c *Config) { c.Autoscale.Template.Kind = KindAntagonist }},
		{"zero-vcpu template", func(c *Config) { c.Autoscale.Template.VCPUs = 0 }},
		{"zero max", func(c *Config) { c.Autoscale.Max = 0 }},
		{"zero step", func(c *Config) { c.Autoscale.Step = 0 }},
		{"zero interval", func(c *Config) { c.Autoscale.Interval = 0 }},
		{"zero cooldown", func(c *Config) { c.Autoscale.Cooldown = 0 }},
		{"zero down-after", func(c *Config) { c.Autoscale.DownAfter = 0 }},
	}
	for _, tc := range cases {
		cfg := autoscaleConfig()
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
}
