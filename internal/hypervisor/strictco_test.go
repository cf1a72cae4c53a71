package hypervisor

import (
	"testing"

	"repro/internal/sim"
)

func strictRig(t *testing.T) (*sim.Engine, *Hypervisor, *VM, *VM) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	cfg.Strategy = StrategyStrictCo
	h := New(eng, cfg)
	gang := h.NewVM("gang", 2, 256, false)
	for i, v := range gang.VCPUs {
		h.RegisterGuest(v, &stubGuest{v: v})
		v.Pin(h.PCPU(i))
		h.StartVCPU(v)
	}
	hog := h.NewVM("hog", 1, 256, false)
	hv := hog.VCPUs[0]
	h.RegisterGuest(hv, &stubGuest{v: hv})
	hv.Pin(h.PCPU(0))
	h.StartVCPU(hv)
	return eng, h, gang, hog
}

func TestStrictCoGangRunsTogether(t *testing.T) {
	eng, h, gang, _ := strictRig(t)
	// Sample: whenever one gang vCPU runs, its sibling must be running
	// too (both are CPU-bound and on distinct pCPUs).
	violations := 0
	eng.Every(sim.Millisecond, func() {
		a := gang.VCPUs[0].State() == StateRunning
		b := gang.VCPUs[1].State() == StateRunning
		if a != b {
			violations++
		}
	})
	_ = eng.Run(2 * sim.Second)
	_ = h
	// Allow a tiny tolerance for sampling on slot edges.
	if violations > 10 {
		t.Fatalf("gang vCPUs ran asynchronously in %d samples", violations)
	}
}

func TestStrictCoAlternatesSlots(t *testing.T) {
	eng, _, gang, hog := strictRig(t)
	_ = eng.Run(3 * sim.Second)
	gangRun := gang.VCPUs[0].RunTime()
	hogRun := hog.VCPUs[0].RunTime()
	// Gang and free slots alternate: each side gets ~half of pCPU 0.
	ratio := float64(gangRun) / float64(hogRun)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("slot split gang=%v hog=%v", gangRun, hogRun)
	}
}

func TestStrictCoNoLHPDuringSlot(t *testing.T) {
	eng, _, gang, _ := strictRig(t)
	// Mark the gang guest as always lock-holding: strict co-scheduling
	// must still never preempt it mid-slot in a way its sibling
	// doesn't share — i.e. no involuntary preemption while the sibling
	// keeps running.
	for i := range gang.VCPUs {
		g := gang.VCPUs[i].ctx.(*stubGuest)
		g.preempted = PreemptLockHolder
	}
	_ = eng.Run(2 * sim.Second)
	// Slot-edge preemptions hit both siblings at once; they are counted
	// as LHP by the stub, but there must be no *additional* mid-slot
	// preemptions: at most one per rotation.
	rotations := int64(2 * sim.Second / (30 * sim.Millisecond))
	if gang.LHPCount > rotations+2 {
		t.Fatalf("LHP count %d exceeds one per slot rotation (%d)", gang.LHPCount, rotations)
	}
}

func TestStrictCoFragmentation(t *testing.T) {
	// A gang whose vCPU 1 blocks forever wastes pCPU 1 during its slots:
	// the hog must not backfill it (reserved), so machine utilization
	// drops below work-conserving.
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	cfg.Strategy = StrategyStrictCo
	h := New(eng, cfg)
	gang := h.NewVM("gang", 2, 256, false)
	for i, v := range gang.VCPUs {
		h.RegisterGuest(v, &stubGuest{v: v})
		v.Pin(h.PCPU(i))
		h.StartVCPU(v)
	}
	// Block gang vCPU 1 immediately and keep it blocked.
	eng.After(sim.Millisecond, func() {
		if gang.VCPUs[1].State() == StateRunning {
			h.SchedOpBlock(gang.VCPUs[1])
		}
	})
	hog := h.NewVM("hog", 1, 256, false)
	hv := hog.VCPUs[0]
	h.RegisterGuest(hv, &stubGuest{v: hv})
	hv.Pin(h.PCPU(1)) // hog shares pCPU 1 with the blocked gang vCPU
	h.StartVCPU(hv)
	_ = eng.Run(2 * sim.Second)
	// pCPU 1 idles during gang slots (reserved for the blocked vCPU):
	// the hog gets only the free slots, ~half the machine time.
	if hv.RunTime() > sim.Time(float64(2*sim.Second)*0.7) {
		t.Fatalf("hog backfilled reserved gang slots: ran %v of 2s", hv.RunTime())
	}
	if h.PCPU(1).IdleTime() < 500*sim.Millisecond {
		t.Fatalf("no fragmentation: pCPU1 idle only %v", h.PCPU(1).IdleTime())
	}
}
