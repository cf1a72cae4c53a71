package cluster

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRouteAllocationFree pins the router's dispatch at zero
// allocations per request, amortised: the request waits in its host's
// inbox and the delivery posted is the host's bound callback, not a
// closure per request. Each host engine first fires a batch of no-op
// events, so the deliveries' events reuse recycled ones.
func TestRouteAllocationFree(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 2 * sim.Second
	cfg.Drain = sim.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, h := range c.hosts {
		for i := 0; i < 128; i++ {
			h.eng.At(h.eng.Now(), func() {})
		}
		h.eng.RunWindow(h.eng.Now())
	}
	inTransit := func() int {
		n := 0
		for _, h := range c.hosts {
			n += len(h.inbox.q) - h.inbox.head
		}
		return n
	}
	req := workload.Request{Arrival: c.ctl.Now()}
	allocs := testing.AllocsPerRun(100, func() { c.route(req) })
	if n := inTransit(); n != 101 {
		t.Fatalf("%d requests in transit after 101 routes: the rig held some back", n)
	}
	if allocs != 0 {
		t.Fatalf("route allocates %v times per request, want 0", allocs)
	}
}

// TestAuditPassAllocationFree pins one clean cluster-level audit pass
// (the checker's pass over Cluster.AuditInvariants) at zero
// allocations: the checker binds its report callback once and the
// per-host vCPU sums reuse a scratch slice.
func TestAuditPassAllocationFree(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 2 * sim.Second
	cfg.Drain = sim.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	now := c.sh.Now()
	if allocs := testing.AllocsPerRun(100, func() { c.checker.AuditAt(now) }); allocs != 0 {
		t.Fatalf("audit pass allocates %.1f times, want 0", allocs)
	}
	if n := c.checker.Count(); n != 0 {
		t.Fatalf("%d violations; the pinned pass must be clean", n)
	}
}
