package hypervisor

import (
	"testing"

	"repro/internal/sim"
)

// saGuest acknowledges scheduler activations after a configurable
// delay, mimicking the guest's 20-26µs SA handling path.
type saGuest struct {
	h       *Hypervisor
	v       *VCPU
	delay   sim.Time
	block   bool // ack with SCHEDOP_block instead of yield
	ignore  bool // never acknowledge (rogue guest)
	upcalls int
}

func (g *saGuest) Resume()  {}
func (g *saGuest) Suspend() {}
func (g *saGuest) TakeIRQ(irq IRQ) {
	if irq != IRQSAUpcall || g.ignore {
		return
	}
	g.upcalls++
	g.h.eng.After(g.delay, func() {
		if !g.v.saPending {
			return
		}
		if g.block {
			g.h.SchedOpBlock(g.v)
		} else {
			g.h.SchedOpYield(g.v)
		}
	})
}
func (g *saGuest) Descheduling() PreemptClass { return PreemptOther }

func saRig(t *testing.T, delay sim.Time, block, ignore bool) (*sim.Engine, *Hypervisor, *saGuest) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig(1)
	cfg.Strategy = StrategyIRS
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

func TestSASentOnInvoluntaryPreemption(t *testing.T) {
	eng, h, g := saRig(t, 20*sim.Microsecond, false, false)
	_ = eng.Run(2 * sim.Second)
	sent, acked, expired, _, mean, _ := h.SAStats()
	if sent == 0 {
		t.Fatal("no SAs sent under contention")
	}
	if acked != sent-expired {
		t.Fatalf("acked=%d sent=%d expired=%d inconsistent", acked, sent, expired)
	}
	if expired != 0 {
		t.Fatalf("expired=%d with a prompt guest", expired)
	}
	if g.upcalls != int(sent) {
		t.Fatalf("guest saw %d upcalls, hypervisor sent %d", g.upcalls, sent)
	}
	if mean != 20*sim.Microsecond {
		t.Fatalf("mean delay %v, want 20µs", mean)
	}
}

func TestSAHardLimitEnforced(t *testing.T) {
	eng, h, _ := saRig(t, 0, false, true) // rogue guest never acks
	_ = eng.Run(2 * sim.Second)
	sent, acked, expired, _, _, _ := h.SAStats()
	if sent == 0 {
		t.Fatal("no SAs sent")
	}
	if acked != 0 {
		t.Fatalf("acked=%d for a rogue guest", acked)
	}
	if expired != sent {
		t.Fatalf("expired=%d, want %d (all)", expired, sent)
	}
}

func TestSADelayWithinHardLimit(t *testing.T) {
	eng, h, _ := saRig(t, 30*sim.Microsecond, false, false)
	_ = eng.Run(1 * sim.Second)
	_, _, _, _, _, maxDelay := h.SAStats()
	if maxDelay > h.Config().SALimit {
		t.Fatalf("max SA delay %v exceeds limit %v", maxDelay, h.Config().SALimit)
	}
}

func TestSAAckWithBlockTransitionsVCPU(t *testing.T) {
	eng, h, _ := saRig(t, 15*sim.Microsecond, true, false)
	v := h.VMs()[0].VCPUs[0]
	blockedSeen := false
	eng.Every(sim.Millisecond, func() {
		if v.State() == StateBlocked {
			blockedSeen = true
			eng.Stop()
		}
	})
	_ = eng.Run(2 * sim.Second)
	if !blockedSeen {
		t.Fatal("SA block acknowledgement never blocked the vCPU")
	}
}

func TestSANotSentToIncapableVM(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(1)
	cfg.Strategy = StrategyIRS
	h := New(eng, cfg)
	vm := h.NewVM("legacy", 1, 256, false) // not SA-capable
	v := vm.VCPUs[0]
	h.RegisterGuest(v, &stubGuest{v: v})
	v.Pin(h.PCPU(0))
	h.StartVCPU(v)
	hog := h.NewVM("hog", 1, 256, false)
	hv := hog.VCPUs[0]
	h.RegisterGuest(hv, &stubGuest{v: hv})
	hv.Pin(h.PCPU(0))
	h.StartVCPU(hv)
	_ = eng.Run(1 * sim.Second)
	sent, _, _, _, _, _ := h.SAStats()
	if sent != 0 {
		t.Fatalf("%d SAs sent to a non-capable VM", sent)
	}
}

func TestSANotSentUnderVanilla(t *testing.T) {
	eng, h, _ := rig(t, DefaultConfig(1), false, 1, 1)
	_ = eng.Run(1 * sim.Second)
	if sent, _, _, _, _, _ := h.SAStats(); sent != 0 {
		t.Fatalf("%d SAs sent under vanilla strategy", sent)
	}
}

func TestSADelaysPreemptionUntilAck(t *testing.T) {
	eng, h, _ := saRig(t, 25*sim.Microsecond, false, false)
	v := h.VMs()[0].VCPUs[0]
	// While an SA is pending, the vCPU must still be running.
	violated := false
	eng.Every(5*sim.Microsecond, func() {
		if v.saPending && v.State() != StateRunning {
			violated = true
			eng.Stop()
		}
	})
	_ = eng.Run(500 * sim.Millisecond)
	if violated {
		t.Fatal("vCPU descheduled while its SA was pending")
	}
}

func TestFairnessPreservedUnderIRS(t *testing.T) {
	// §5.4: IRS must not compromise fairness between VMs.
	eng, h, _ := saRig(t, 22*sim.Microsecond, false, false)
	_ = eng.Run(5 * sim.Second)
	a := h.VMs()[0].VCPUs[0].RunTime()
	b := h.VMs()[1].VCPUs[0].RunTime()
	ratio := float64(a) / float64(b)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("IRS broke fairness: fg=%v bg=%v", a, b)
	}
}
