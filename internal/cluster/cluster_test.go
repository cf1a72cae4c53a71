package cluster

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/sim"
)

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// shortConfig trims the default rig for unit-test wall-clock.
func shortConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 8 * sim.Second
	cfg.Drain = 2 * sim.Second
	cfg.Invariants = true
	return cfg
}

func TestClusterDeterminism(t *testing.T) {
	cfg := shortConfig()
	cfg.Policy = InterferenceAware
	cfg.Migration = true
	a := fmt.Sprintf("%+v", mustRun(t, cfg))
	b := fmt.Sprintf("%+v", mustRun(t, cfg))
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	cfg.Seed = 2
	if c := fmt.Sprintf("%+v", mustRun(t, cfg)); c == a {
		t.Fatal("different seed produced an identical run")
	}
}

func TestClusterRequestConservation(t *testing.T) {
	res := mustRun(t, shortConfig())
	if res.Generated < 1000 {
		t.Fatalf("generated only %d requests", res.Generated)
	}
	if res.Unserved != 0 {
		t.Fatalf("%d of %d requests unserved after the drain", res.Unserved, res.Generated)
	}
	if res.Violations != 0 {
		t.Fatalf("%d invariant violations", res.Violations)
	}
}

func TestInterferenceAwarePlusIRSBeatsFirstFit(t *testing.T) {
	// The headline acceptance criterion: the full stack must beat naive
	// packing on both tail latency and SLO-violation rate.
	ff := shortConfig()
	ff.Policy = FirstFit
	base := mustRun(t, ff)

	ia := shortConfig()
	ia.Policy = InterferenceAware
	ia.Strategy = hypervisor.StrategyIRS
	ia.Migration = true
	full := mustRun(t, ia)

	if full.P99 >= base.P99 {
		t.Fatalf("ia+irs p99 %v not better than first-fit %v", full.P99, base.P99)
	}
	if full.SLORate >= base.SLORate {
		t.Fatalf("ia+irs SLO rate %.4f not better than first-fit %.4f", full.SLORate, base.SLORate)
	}
	if base.Violations != 0 || full.Violations != 0 {
		t.Fatalf("invariant violations: first-fit %d, ia+irs %d", base.Violations, full.Violations)
	}
}

func TestMigrationOccursAndStaysInvariantClean(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = InterferenceAware
	cfg.Migration = true
	cfg.Invariants = true
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Migrations == 0 {
		t.Fatal("interference-aware run never migrated")
	}
	if res.Violations != 0 {
		t.Fatalf("%d invariant violations across %d migrations", res.Violations, res.Migrations)
	}
	if res.Unserved != 0 {
		t.Fatalf("%d requests lost across migrations", res.Unserved)
	}
	// The logical VM moved hosts; its handle must say so and the
	// committed bookkeeping must still sum to the placements.
	moved := 0
	for _, hd := range c.VMs() {
		moved += hd.Migrations()
	}
	if int64(moved) != res.Migrations {
		t.Fatalf("handles record %d moves, result says %d", moved, res.Migrations)
	}
}

func TestClusterChaosMigratesWithoutViolations(t *testing.T) {
	// Control-plane faults inside every host plus periodic host
	// blackouts, with the hardened guest profile: migrations must still
	// complete and the checker must stay silent (no VM lost or
	// double-placed, no request dropped).
	cfg := DefaultConfig()
	cfg.Policy = InterferenceAware
	cfg.Strategy = hypervisor.StrategyIRS
	cfg.Migration = true
	cfg.Invariants = true
	cfg.Faults = fault.LossPlan(0.10)
	cfg.HostBlackoutEvery = 6 * sim.Second
	cfg.HostBlackoutFor = 60 * sim.Millisecond
	cfg.TuneHV = func(c *hypervisor.Config) {
		c.SABreakerN = 5
		c.SABreakerCooldown = 50 * sim.Millisecond
	}
	cfg.TuneGuest = func(c *guest.Config) {
		c.HardenDupSA = true
		c.MigratorRetries = 3
		c.MigratorBackoff = 200 * sim.Microsecond
		c.WakePoll = 5 * sim.Millisecond
	}
	res := mustRun(t, cfg)
	if res.FaultsInjected == 0 {
		t.Fatal("chaos run injected no faults")
	}
	if res.Blackouts == 0 {
		t.Fatal("chaos run saw no host blackouts")
	}
	if res.Migrations == 0 {
		t.Fatal("chaos run never migrated")
	}
	if res.Violations != 0 {
		t.Fatalf("%d invariant violations under chaos", res.Violations)
	}
	if res.Served < res.Generated*9/10 {
		t.Fatalf("served %d of %d — chaos collapsed throughput", res.Served, res.Generated)
	}
}

func TestPlacementPoliciesSpreadAndPack(t *testing.T) {
	// FirstFit packs the early arrivals onto host 0 until it is full;
	// LeastLoaded spreads them round-robin by committed vCPUs.
	ff := shortConfig()
	ff.Policy = FirstFit
	ff.Migration = false
	c, err := New(ff)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	cap := c.capacity()
	if got := c.Hosts()[0].Committed(); got != cap {
		t.Fatalf("first-fit left host0 at %d/%d committed vCPUs", got, cap)
	}

	ll := shortConfig()
	ll.Policy = LeastLoaded
	c2, err := New(ll)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c2.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, h := range c2.Hosts() {
		if h.Committed() == 0 {
			t.Fatalf("least-loaded left %s empty", h.Name())
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no hosts", func(c *Config) { c.Hosts = 0 }},
		{"no pcpus", func(c *Config) { c.PCPUsPerHost = 0 }},
		{"no vms", func(c *Config) { c.VMs = nil }},
		{"kindless vm", func(c *Config) { c.VMs = []VMSpec{{Name: "x", VCPUs: 1}} }},
		{"zero-vcpu vm", func(c *Config) { c.VMs = []VMSpec{{Name: "x", Kind: KindServer}} }},
		{"duplicate vm name", func(c *Config) { c.VMs = append(c.VMs, c.VMs[0]) }},
		{"zero policy", func(c *Config) { c.Policy = 0 }},
		{"zero overcommit", func(c *Config) { c.Overcommit = 0 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
}

func TestScarcityShape(t *testing.T) {
	for _, tc := range []struct{ u, want float64 }{
		{0, 0}, {0.5, 0}, {0.75, 0.5}, {1.0, 1}, {1.5, 1},
	} {
		if got := scarcity(tc.u); got != tc.want {
			t.Errorf("scarcity(%.2f) = %.2f, want %.2f", tc.u, got, tc.want)
		}
	}
}
