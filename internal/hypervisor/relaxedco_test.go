package hypervisor

import (
	"testing"

	"repro/internal/sim"
)

// coRig: a 2-vCPU VM spread over 2 pCPUs; vCPU 0 shares pCPU 0 with a
// hog, so it lags its sibling — the relaxed-co trigger condition.
func coRig(t *testing.T, strategy Strategy) (*sim.Engine, *Hypervisor) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	cfg.Strategy = strategy
	h := New(eng, cfg)
	vm := h.NewVM("par", 2, 256, false)
	for i, v := range vm.VCPUs {
		h.RegisterGuest(v, &stubGuest{v: v})
		v.Pin(h.PCPU(i))
		h.StartVCPU(v)
	}
	hog := h.NewVM("hog", 1, 256, false)
	hv := hog.VCPUs[0]
	h.RegisterGuest(hv, &stubGuest{v: hv})
	hv.Pin(h.PCPU(0))
	h.StartVCPU(hv)
	return eng, h
}

func TestRelaxedCoBoostsLaggard(t *testing.T) {
	engCo, hCo := coRig(t, StrategyRelaxedCo)
	_ = engCo.Run(3 * sim.Second)
	engV, hV := coRig(t, StrategyVanilla)
	_ = engV.Run(3 * sim.Second)

	lagCo := hCo.VMs()[0].VCPUs[0].RunTime()
	lagV := hV.VMs()[0].VCPUs[0].RunTime()
	// The laggard should receive at least as much CPU with relaxed-co
	// boosting it every accounting period.
	if lagCo < lagV {
		t.Fatalf("relaxed-co laggard runtime %v < vanilla %v", lagCo, lagV)
	}
}

func TestRelaxedCoParksLeader(t *testing.T) {
	eng, h := coRig(t, StrategyRelaxedCo)
	leader := h.VMs()[0].VCPUs[1] // uncontended sibling leads
	parked := false
	eng.Every(sim.Millisecond, func() {
		if leader.parkedUntil > eng.Now() {
			parked = true
			eng.Stop()
		}
	})
	_ = eng.Run(3 * sim.Second)
	if !parked {
		t.Fatal("leading vCPU was never parked despite persistent skew")
	}
}

func TestRelaxedCoParkReleasedOnCatchUp(t *testing.T) {
	eng, h := coRig(t, StrategyRelaxedCo)
	leader := h.VMs()[0].VCPUs[1]
	var parkStart sim.Time
	var parkSpan sim.Time
	eng.Every(sim.Millisecond, func() {
		now := eng.Now()
		if leader.parkedUntil > now && parkStart == 0 {
			parkStart = now
		}
		if parkStart > 0 && (leader.parkedUntil <= now || leader.State() == StateRunning) {
			parkSpan = now - parkStart
			eng.Stop()
		}
	})
	_ = eng.Run(3 * sim.Second)
	if parkStart == 0 {
		t.Skip("no park observed")
	}
	maxPark := accountPeriod + 2*CreditTick
	if parkSpan > maxPark+2*sim.Millisecond {
		t.Fatalf("park lasted %v, want <= %v", parkSpan, maxPark)
	}
}

func TestRelaxedCoInactiveWithoutSkew(t *testing.T) {
	// Two sibling vCPUs with identical contention: no skew, no parks.
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	cfg.Strategy = StrategyRelaxedCo
	h := New(eng, cfg)
	vm := h.NewVM("par", 2, 256, false)
	for i, v := range vm.VCPUs {
		h.RegisterGuest(v, &stubGuest{v: v})
		v.Pin(h.PCPU(i))
		h.StartVCPU(v)
	}
	parks := 0
	eng.Every(sim.Millisecond, func() {
		for _, v := range vm.VCPUs {
			if v.parkedUntil > eng.Now() {
				parks++
			}
		}
	})
	_ = eng.Run(2 * sim.Second)
	if parks != 0 {
		t.Fatalf("%d park observations without skew", parks)
	}
}

func TestRelaxedCoSkipsSingleVCPUVMs(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(1)
	cfg.Strategy = StrategyRelaxedCo
	h := New(eng, cfg)
	for _, name := range []string{"a", "b"} {
		vm := h.NewVM(name, 1, 256, false)
		v := vm.VCPUs[0]
		h.RegisterGuest(v, &stubGuest{v: v})
		v.Pin(h.PCPU(0))
		h.StartVCPU(v)
	}
	_ = eng.Run(2 * sim.Second)
	for _, vm := range h.VMs() {
		if vm.VCPUs[0].parkedUntil != 0 {
			t.Fatal("single-vCPU VM was parked")
		}
	}
}
