package hypervisor

import (
	"testing"

	"repro/internal/sim"
)

// Zero-allocation pins for the per-event hypervisor paths: each test
// warms a rig to steady state, then asserts that driving the path
// allocates nothing per op. Every callback these paths schedule is
// bound once at construction, so a regression here means a closure or
// label is being built per schedule again.

// assertNoAllocs runs op after a warm-up and fails if it allocates.
func assertNoAllocs(t *testing.T, what string, op func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		t.Fatalf("%s allocates %v allocs/op, want 0", what, allocs)
	}
}

// runFor advances eng by d, failing the test on a scheduling error.
func runFor(t *testing.T, eng *sim.Engine, d sim.Time) {
	t.Helper()
	if err := eng.Run(eng.Now() + d); err != nil {
		t.Fatal(err)
	}
}

// TestPLERearmZeroAllocs: a spinner alone on its pCPU has nobody to
// yield to, so every PLE window expiry re-arms the next one.
func TestPLERearmZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(1)
	cfg.Strategy = StrategyPLE
	h := New(eng, cfg)
	v := h.NewVM("spinner", 1, 256, false).VCPUs[0]
	h.RegisterGuest(v, &spinGuest{h: h, v: v})
	v.Pin(h.PCPU(0))
	h.StartVCPU(v)
	runFor(t, eng, sim.Millisecond)
	// The spin that began with the dispatch at time zero reads as "not
	// spinning" (spinningSince 0); re-enter the loop now.
	h.SpinBegin(v)
	if v.pleEvent.Cancelled() {
		t.Fatal("no PLE window armed for a running spinner")
	}
	assertNoAllocs(t, "PLE re-arm", func() { runFor(t, eng, 10*pleWindow) })
	if h.PLEYields() != 0 {
		t.Fatalf("%d PLE yields with nobody to yield to", h.PLEYields())
	}
}

// TestSetTimerZeroAllocs arms and fires the guest one-shot timer on a
// running vCPU.
func TestSetTimerZeroAllocs(t *testing.T) {
	eng, h := occRig(1)
	v := h.VMs()[0].VCPUs[0]
	g := v.ctx.(*stubGuest)
	runFor(t, eng, sim.Millisecond)
	g.irqs = make([]IRQ, 0, 1024)
	assertNoAllocs(t, "SetTimer", func() {
		h.SetTimer(v, eng.Now()+10*sim.Microsecond)
		runFor(t, eng, 10*sim.Microsecond)
	})
	if len(g.irqs) == 0 {
		t.Fatal("timer never delivered IRQTimer")
	}
}

// ackGuest acknowledges every scheduler activation with a yield after
// a fixed handling delay, through a callback bound once.
type ackGuest struct {
	h     *Hypervisor
	v     *VCPU
	delay sim.Time
	ackFn func()
}

func newAckGuest(h *Hypervisor, v *VCPU, delay sim.Time) *ackGuest {
	g := &ackGuest{h: h, v: v, delay: delay}
	g.ackFn = func() {
		if g.v.saPending {
			g.h.SchedOpYield(g.v)
		}
	}
	return g
}

func (g *ackGuest) Resume()  {}
func (g *ackGuest) Suspend() {}
func (g *ackGuest) TakeIRQ(irq IRQ) {
	if irq == IRQSAUpcall {
		g.h.eng.After(g.delay, g.ackFn)
	}
}
func (g *ackGuest) Descheduling() PreemptClass { return PreemptOther }

// TestSARoundTripZeroAllocs: an SA-capable VM shares a pCPU with a hog
// under IRS, so every timeslice preemption is an SA send → ack round
// trip.
func TestSARoundTripZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(1)
	cfg.Strategy = StrategyIRS
	h := New(eng, cfg)
	v := h.NewVM("sa", 1, 256, true).VCPUs[0]
	h.RegisterGuest(v, newAckGuest(h, v, 20*sim.Microsecond))
	v.Pin(h.PCPU(0))
	h.StartVCPU(v)
	hog := h.NewVM("hog", 1, 256, false).VCPUs[0]
	h.RegisterGuest(hog, &stubGuest{v: hog})
	hog.Pin(h.PCPU(0))
	h.StartVCPU(hog)
	runFor(t, eng, 2*sim.Second)
	before, _, _, _, _, _ := h.SAStats()
	assertNoAllocs(t, "SA round trip", func() { runFor(t, eng, 90*sim.Millisecond) })
	sent, acked, expired, _, _, _ := h.SAStats()
	if sent == before {
		t.Fatal("no SAs sent while measuring")
	}
	if expired != 0 || acked != sent-h.saPendingN {
		t.Fatalf("sent=%d acked=%d expired=%d: round trips did not complete", sent, acked, expired)
	}
}

// TestRepickZeroAllocs drives the load balancer's periodic re-pick
// (repickVCPU) on an unpinned rig.
func TestRepickZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(4)
	cfg.LoadBalance = true
	cfg.RepickEpsilon = 1
	h := New(eng, cfg)
	for i := 0; i < 6; i++ {
		v := h.NewVM("vm"+string(rune('a'+i)), 1, 256, false).VCPUs[0]
		h.RegisterGuest(v, &stubGuest{v: v})
		h.StartVCPU(v)
	}
	runFor(t, eng, 2*sim.Second)
	before := h.VCPUMigrations()
	assertNoAllocs(t, "repick", func() { runFor(t, eng, 90*sim.Millisecond) })
	if h.VCPUMigrations() == before {
		t.Fatal("no vCPU migrations while measuring: repick never moved anyone")
	}
}
