package hypervisor

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// faultRig is saRig plus a fault plan and optional config tweaks.
func faultRig(t *testing.T, plan fault.Plan, tune func(*Config), delay sim.Time, block, ignore bool) (*sim.Engine, *Hypervisor, *saGuest) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig(1)
	cfg.Strategy = StrategyIRS
	cfg.Faults = fault.NewInjector(plan, 7)
	if tune != nil {
		tune(&cfg)
	}
	h := New(eng, cfg)
	vm := h.NewVM("sa", 1, 256, true)
	v := vm.VCPUs[0]
	g := &saGuest{h: h, v: v, delay: delay, block: block, ignore: ignore}
	h.RegisterGuest(v, g)
	v.Pin(h.PCPU(0))
	h.StartVCPU(v)

	hog := h.NewVM("hog", 1, 256, false)
	hv := hog.VCPUs[0]
	h.RegisterGuest(hv, &stubGuest{v: hv})
	hv.Pin(h.PCPU(0))
	h.StartVCPU(hv)
	return eng, h, g
}

// saLedger asserts the SA accounting identity sent == acked + expired +
// pending, which must hold under any fault mix.
func saLedger(t *testing.T, h *Hypervisor) (sent, acked, expired, pending int64) {
	t.Helper()
	sent, acked, expired, pending, _, _ = h.SAStats()
	if sent != acked+expired+pending {
		t.Fatalf("SA ledger broken: sent %d != acked %d + expired %d + pending %d",
			sent, acked, expired, pending)
	}
	return
}

func TestSADropAllExpire(t *testing.T) {
	eng, h, g := faultRig(t, fault.Plan{DropSA: 1}, nil, 20*sim.Microsecond, false, false)
	_ = eng.Run(2 * sim.Second)
	sent, acked, expired, _ := saLedger(t, h)
	if sent == 0 {
		t.Fatal("no SAs sent under contention")
	}
	if g.upcalls != 0 {
		t.Fatalf("guest saw %d upcalls with drop-sa=1", g.upcalls)
	}
	if acked != 0 || expired == 0 {
		t.Fatalf("acked=%d expired=%d, want all dropped SAs to expire", acked, expired)
	}
}

func TestSADupDeliversTwiceAndLedgerHolds(t *testing.T) {
	eng, h, g := faultRig(t, fault.Plan{DupSA: 1}, nil, 20*sim.Microsecond, false, false)
	_ = eng.Run(2 * sim.Second)
	sent, acked, _, _ := saLedger(t, h)
	if sent == 0 || acked == 0 {
		t.Fatalf("sent=%d acked=%d, want activity", sent, acked)
	}
	// Every sent SA is delivered twice (original + duplicate 1 ns later,
	// both inside the open handshake window).
	if g.upcalls != 2*int(sent) {
		t.Fatalf("guest saw %d upcalls for %d sent with dup-sa=1", g.upcalls, sent)
	}
}

func TestSAAckLossExpiresHandshake(t *testing.T) {
	eng, h, _ := faultRig(t, fault.Plan{AckLoss: 1}, nil, 20*sim.Microsecond, false, false)
	_ = eng.Run(2 * sim.Second)
	sent, acked, expired, _ := saLedger(t, h)
	if sent == 0 {
		t.Fatal("no SAs sent")
	}
	if acked != 0 || expired != sent {
		t.Fatalf("acked=%d expired=%d sent=%d, want every ack lost", acked, expired, sent)
	}
}

func TestSAAckDelayStillCompletes(t *testing.T) {
	eng, h, _ := faultRig(t, fault.Plan{AckDelay: 10 * sim.Microsecond}, nil, 20*sim.Microsecond, false, false)
	_ = eng.Run(2 * sim.Second)
	sent, acked, expired, _ := saLedger(t, h)
	if sent == 0 || acked == 0 {
		t.Fatalf("sent=%d acked=%d, want delayed acks to land", sent, acked)
	}
	if expired != 0 {
		t.Fatalf("expired=%d with ack delay well inside the hard limit", expired)
	}
}

func TestMixedFaultLedger(t *testing.T) {
	eng, h, _ := faultRig(t, fault.LossPlan(0.3), nil, 20*sim.Microsecond, false, false)
	_ = eng.Run(5 * sim.Second)
	sent, acked, expired, _ := saLedger(t, h)
	if sent == 0 || acked == 0 || expired == 0 {
		t.Fatalf("sent=%d acked=%d expired=%d, want a mixed outcome under LossPlan", sent, acked, expired)
	}
}

func TestCircuitBreakerFallsBackToPlainPreemption(t *testing.T) {
	tune := func(c *Config) {
		c.SABreakerN = 3
		c.SABreakerCooldown = 500 * sim.Millisecond
	}
	// Rogue guest: every SA expires, so the breaker opens after 3. The
	// cooldown is longer than the ~60 ms preemption cadence so most
	// preemptions find the breaker open and fall back.
	eng, h, _ := faultRig(t, fault.Plan{}, tune, 0, false, true)
	_ = eng.Run(2 * sim.Second)
	sent, _, expired, _ := saLedger(t, h)
	if h.SAFallbacks() == 0 {
		t.Fatal("breaker never fell back to plain preemption")
	}
	if expired != sent {
		t.Fatalf("expired=%d sent=%d for a rogue guest", expired, sent)
	}
	// Initial streak of 3 plus ~1 half-open probe per 500 ms window;
	// without the breaker the rogue guest would see dozens.
	if sent > 3+4+3 {
		t.Fatalf("breaker open but %d SAs still sent", sent)
	}
}

func TestCircuitBreakerClosesOnAck(t *testing.T) {
	tune := func(c *Config) {
		c.SABreakerN = 3
		c.SABreakerCooldown = 10 * sim.Millisecond
	}
	// Half of the acks are lost: streaks of expiries open the breaker,
	// but a successful half-open probe must close it again.
	eng, h, _ := faultRig(t, fault.Plan{AckLoss: 0.5}, tune, 20*sim.Microsecond, false, false)
	_ = eng.Run(5 * sim.Second)
	sent, acked, _, _ := saLedger(t, h)
	if sent == 0 || acked == 0 {
		t.Fatalf("sent=%d acked=%d, want the breaker to keep probing", sent, acked)
	}
}

func TestStaleRunstateServed(t *testing.T) {
	plan := fault.Plan{StaleRunstate: 10 * sim.Millisecond}
	eng, h, _ := faultRig(t, plan, nil, 20*sim.Microsecond, false, false)
	v := h.VMs()[0].VCPUs[0]
	var first, within Runstate
	var firstAt, withinAt, beyondAt sim.Time
	eng.At(100*sim.Millisecond, func() {
		first = h.GetRunstate(v)
		firstAt = h.staleRS[v].at
	})
	eng.At(105*sim.Millisecond, func() {
		within = h.GetRunstate(v)
		withinAt = h.staleRS[v].at
	})
	eng.At(120*sim.Millisecond, func() {
		h.GetRunstate(v)
		beyondAt = h.staleRS[v].at
	})
	_ = eng.Run(150 * sim.Millisecond)
	if within != first || withinAt != firstAt {
		t.Fatalf("snapshot within staleness bound changed: %+v -> %+v", first, within)
	}
	if beyondAt != 120*sim.Millisecond {
		t.Fatalf("snapshot beyond the staleness bound not refreshed (cached at %v)", beyondAt)
	}
	if h.Config().Faults.Count(fault.KindStaleRunstate) == 0 {
		t.Fatal("stale serves not counted")
	}
}

func TestBlackoutPausesAndResumes(t *testing.T) {
	plan := fault.Plan{BlackoutEvery: 100 * sim.Millisecond, BlackoutFor: 5 * sim.Millisecond}
	eng, h, _ := faultRig(t, plan, nil, 20*sim.Microsecond, false, false)
	_ = eng.Run(2 * sim.Second)
	saLedger(t, h)
	if h.Config().Faults.Count(fault.KindBlackout) == 0 {
		t.Fatal("no blackouts injected")
	}
	// Both vCPUs keep making progress across blackouts.
	for _, vm := range h.VMs() {
		if rt := vm.VCPUs[0].RunTime(); rt < 100*sim.Millisecond {
			t.Fatalf("%s ran only %v across 2s with periodic blackouts", vm.Name, rt)
		}
	}
}

func TestAuditInvariantsCleanUnderFaults(t *testing.T) {
	plans := map[string]fault.Plan{
		"none": {},
		"loss": fault.LossPlan(0.25),
		"blackout": {
			BlackoutEvery: 50 * sim.Millisecond,
			BlackoutFor:   2 * sim.Millisecond,
		},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			tune := func(c *Config) { c.SABreakerN = 3; c.SABreakerCooldown = 10 * sim.Millisecond }
			eng, h, _ := faultRig(t, plan, tune, 20*sim.Microsecond, false, false)
			var violations []string
			eng.Every(sim.Millisecond, func() {
				h.AuditInvariants(func(rule, detail string) {
					violations = append(violations, fmt.Sprintf("%s: %s", rule, detail))
				})
			})
			_ = eng.Run(1 * sim.Second)
			if len(violations) > 0 {
				t.Fatalf("%d invariant violations, first: %s", len(violations), violations[0])
			}
		})
	}
}
