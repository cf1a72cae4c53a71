package hypervisor

import (
	"testing"

	"repro/internal/sim"
)

// lbRig builds an unpinned (LoadBalance) hypervisor with nVMs
// single-vCPU CPU-bound VMs on nPCPUs.
func lbRig(t *testing.T, nPCPUs, nVMs int) (*sim.Engine, *Hypervisor) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig(nPCPUs)
	cfg.LoadBalance = true
	h := New(eng, cfg)
	for i := 0; i < nVMs; i++ {
		vm := h.NewVM("vm"+string(rune('a'+i)), 1, 256, false)
		v := vm.VCPUs[0]
		h.RegisterGuest(v, &stubGuest{v: v})
		h.StartVCPU(v)
	}
	return eng, h
}

func TestUnpinnedVCPUsSpreadAcrossPCPUs(t *testing.T) {
	eng, h := lbRig(t, 4, 4)
	_ = eng.Run(2 * sim.Second)
	// 4 CPU-bound vCPUs on 4 pCPUs: each should get nearly a full pCPU.
	for _, vm := range h.VMs() {
		rt := vm.VCPUs[0].RunTime()
		if rt < sim.Time(float64(2*sim.Second)*0.85) {
			t.Fatalf("%s ran only %v of 2s; balancing failed", vm.Name, rt)
		}
	}
}

func TestStealWorkFromBusyPCPU(t *testing.T) {
	// All vCPUs initially assigned to pCPU 0; idle stealing must spread
	// them out quickly.
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	cfg.LoadBalance = true
	h := New(eng, cfg)
	for i := 0; i < 2; i++ {
		vm := h.NewVM("vm"+string(rune('a'+i)), 1, 256, false)
		v := vm.VCPUs[0]
		h.RegisterGuest(v, &stubGuest{v: v})
		v.assigned = h.PCPU(0)
		h.StartVCPU(v)
	}
	_ = eng.Run(1 * sim.Second)
	total := h.VMs()[0].VCPUs[0].RunTime() + h.VMs()[1].VCPUs[0].RunTime()
	if total < sim.Time(float64(2*sim.Second)*0.9) {
		t.Fatalf("total runtime %v of 2 pCPU-seconds; stealing failed", total)
	}
}

func TestOversubscribedWorkConserving(t *testing.T) {
	// 4 CPU-bound VMs on 2 pCPUs: the machine stays fully used and no
	// VM starves. (Global fairness across unpinned pCPUs is only
	// approximate — pairing-dependent, as in real credit1; the paper
	// pins vCPUs for its controlled experiments for this very reason.)
	eng, h := lbRig(t, 2, 4)
	_ = eng.Run(4 * sim.Second)
	var total sim.Time
	for _, vm := range h.VMs() {
		rt := vm.VCPUs[0].RunTime()
		total += rt
		if rt < sim.Time(float64(4*sim.Second)*0.2) {
			t.Fatalf("%s starved: %v of 4s", vm.Name, rt)
		}
	}
	if total < sim.Time(float64(8*sim.Second)*0.98) {
		t.Fatalf("machine underused: %v of 8 pCPU-seconds", total)
	}
}

func TestPinnedVCPUNeverStolen(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(2)
	cfg.LoadBalance = true
	h := New(eng, cfg)
	pinned := h.NewVM("pinned", 1, 256, false)
	pv := pinned.VCPUs[0]
	h.RegisterGuest(pv, &stubGuest{v: pv})
	pv.Pin(h.PCPU(0))
	h.StartVCPU(pv)
	other := h.NewVM("other", 1, 256, false)
	ov := other.VCPUs[0]
	h.RegisterGuest(ov, &stubGuest{v: ov})
	ov.Pin(h.PCPU(0)) // both compete on p0, p1 idles
	h.StartVCPU(ov)
	bad := false
	eng.Every(sim.Millisecond, func() {
		if pv.pcpu == h.PCPU(1) || ov.pcpu == h.PCPU(1) {
			bad = true
		}
	})
	_ = eng.Run(1 * sim.Second)
	if bad {
		t.Fatal("a pinned vCPU ran on the wrong pCPU")
	}
	if h.PCPU(1).IdleTime() < sim.Time(float64(sim.Second)*0.95) {
		t.Fatal("p1 should have stayed idle (both vCPUs pinned to p0)")
	}
}

func TestLoadSnapshotStaleness(t *testing.T) {
	eng, h := lbRig(t, 2, 1)
	// Snapshot refreshes only at ticks: right after a change it is stale.
	var observed bool
	eng.After(25*sim.Millisecond, func() {
		p := h.PCPU(0)
		p.snapshotLoad()
		before := p.loadSnapshot
		// Mutate the queue without a tick: snapshot must not move.
		v := &VCPU{hv: h, state: StateRunnable, prio: PrioUnder, VM: &VM{Name: "x", hv: h}}
		p.enqueue(v)
		if p.loadSnapshot != before {
			t.Error("snapshot changed without a tick")
		}
		p.dequeue(v)
		observed = true
	})
	_ = eng.Run(50 * sim.Millisecond)
	if !observed {
		t.Fatal("check never ran")
	}
}

func TestVCPUMigrationsCounted(t *testing.T) {
	eng, h := lbRig(t, 2, 4)
	_ = eng.Run(2 * sim.Second)
	if h.VCPUMigrations() == 0 {
		t.Fatal("no vCPU migrations recorded in an oversubscribed unpinned setup")
	}
}
