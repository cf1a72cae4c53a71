package hypervisor

import (
	"testing"

	"repro/internal/sim"
)

// spinGuest marks its vCPU as spinning whenever it executes.
type spinGuest struct {
	h *Hypervisor
	v *VCPU
}

func (g *spinGuest) Resume()                    { g.h.SpinBegin(g.v) }
func (g *spinGuest) Suspend()                   {}
func (g *spinGuest) TakeIRQ(IRQ)                {}
func (g *spinGuest) Descheduling() PreemptClass { return PreemptLockWaiter }

func pleRig(t *testing.T, strategy Strategy) (*sim.Engine, *Hypervisor) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig(1)
	cfg.Strategy = strategy
	h := New(eng, cfg)
	spinner := h.NewVM("spinner", 1, 256, false)
	sv := spinner.VCPUs[0]
	h.RegisterGuest(sv, &spinGuest{h: h, v: sv})
	sv.Pin(h.PCPU(0))
	h.StartVCPU(sv)

	hog := h.NewVM("hog", 1, 256, false)
	hv := hog.VCPUs[0]
	h.RegisterGuest(hv, &stubGuest{v: hv})
	hv.Pin(h.PCPU(0))
	h.StartVCPU(hv)
	return eng, h
}

func TestPLEForcesSpinnerToYield(t *testing.T) {
	eng, h := pleRig(t, StrategyPLE)
	_ = eng.Run(1 * sim.Second)
	if h.PLEYields() == 0 {
		t.Fatal("no PLE yields for a perpetual spinner under contention")
	}
	// The spinner should get far less CPU than the competing hog.
	s := h.VMs()[0].VCPUs[0].RunTime()
	hg := h.VMs()[1].VCPUs[0].RunTime()
	if s >= hg {
		t.Fatalf("spinner ran %v vs hog %v; PLE should starve the spinner", s, hg)
	}
}

func TestPLEInactiveUnderVanilla(t *testing.T) {
	eng, h := pleRig(t, StrategyVanilla)
	_ = eng.Run(1 * sim.Second)
	if h.PLEYields() != 0 {
		t.Fatalf("%d PLE yields under vanilla", h.PLEYields())
	}
	// Without PLE the spinner keeps its fair share.
	s := h.VMs()[0].VCPUs[0].RunTime()
	hg := h.VMs()[1].VCPUs[0].RunTime()
	ratio := float64(s) / float64(hg)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("vanilla spinner share %v vs %v", s, hg)
	}
}

func TestPLENoYieldWithoutCompetitor(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(1)
	cfg.Strategy = StrategyPLE
	h := New(eng, cfg)
	vm := h.NewVM("spinner", 1, 256, false)
	v := vm.VCPUs[0]
	h.RegisterGuest(v, &spinGuest{h: h, v: v})
	v.Pin(h.PCPU(0))
	h.StartVCPU(v)
	_ = eng.Run(500 * sim.Millisecond)
	if h.PLEYields() != 0 {
		t.Fatalf("PLE yielded %d times with an empty runqueue", h.PLEYields())
	}
	if v.RunTime() != 500*sim.Millisecond {
		t.Fatalf("lone spinner runtime %v, want full 500ms", v.RunTime())
	}
}

func TestSpinEndCancelsWindow(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(1)
	cfg.Strategy = StrategyPLE
	h := New(eng, cfg)
	vm := h.NewVM("a", 1, 256, false)
	v := vm.VCPUs[0]
	h.RegisterGuest(v, &stubGuest{v: v})
	v.Pin(h.PCPU(0))
	h.StartVCPU(v)
	hog := h.NewVM("hog", 1, 256, false)
	hv := hog.VCPUs[0]
	h.RegisterGuest(hv, &stubGuest{v: hv})
	hv.Pin(h.PCPU(0))
	h.StartVCPU(hv)

	// Spin for less than the PLE window, then stop: no yield.
	eng.After(sim.Millisecond, func() {
		if v.State() == StateRunning {
			h.SpinBegin(v)
			h.eng.After(pleWindow/2, func() { h.SpinEnd(v) })
		}
	})
	_ = eng.Run(100 * sim.Millisecond)
	if h.PLEYields() != 0 {
		t.Fatalf("PLE fired for a sub-window spin: %d", h.PLEYields())
	}
}
