package hypervisor

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := New(sim.NewEngine(), DefaultConfig(2))
	vm := src.NewVM("vm", 2, 512, true)
	vm.VCPUs[0].credits = 120
	vm.VCPUs[0].prio = PrioOver
	vm.VCPUs[1].credits = -50
	vm.VCPUs[1].prio = PrioBoost
	vm.LHPCount = 7
	vm.LWPCount = 3

	snap := src.SnapshotVM(vm)
	if snap.Weight != 512 {
		t.Fatalf("snapshot weight = %d, want 512", snap.Weight)
	}
	if len(snap.VCPUs) != 2 || snap.VCPUs[0].Credits != 120 || snap.VCPUs[1].Credits != -50 {
		t.Fatalf("snapshot vCPUs = %+v", snap.VCPUs)
	}

	dst := New(sim.NewEngine(), DefaultConfig(2))
	nv := dst.NewVM("vm#1", 2, 256, true)
	if err := dst.RestoreVM(nv, snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// LHP/LWP are per-host accounting: they stay with the source.
	if nv.Weight != 512 || nv.LHPCount != 0 || nv.LWPCount != 0 {
		t.Fatalf("restored VM state = weight %d LHP %d LWP %d, want 512/0/0", nv.Weight, nv.LHPCount, nv.LWPCount)
	}
	if nv.VCPUs[0].credits != 120 || nv.VCPUs[0].prio != PrioOver {
		t.Fatalf("vCPU0 = credits %d prio %v", nv.VCPUs[0].credits, nv.VCPUs[0].prio)
	}
	// BOOST does not survive the move: the destination sees a plain vCPU.
	if nv.VCPUs[1].credits != -50 || nv.VCPUs[1].prio != PrioUnder {
		t.Fatalf("vCPU1 = credits %d prio %v, want -50/UNDER", nv.VCPUs[1].credits, nv.VCPUs[1].prio)
	}
}

func TestRestoreRejectsVCPUCountMismatch(t *testing.T) {
	h := New(sim.NewEngine(), DefaultConfig(2))
	snap := h.SnapshotVM(h.NewVM("a", 2, 256, false))
	if err := h.RestoreVM(h.NewVM("b", 1, 256, false), snap); err == nil {
		t.Fatal("restore with mismatched vCPU count succeeded")
	}
}

func TestRestoreRejectsStartedVCPU(t *testing.T) {
	eng, h, _ := rig(t, DefaultConfig(1), false, 1)
	vm := h.VMs()[0]
	snap := h.SnapshotVM(vm)
	_ = eng
	if err := h.RestoreVM(vm, snap); err == nil {
		t.Fatal("restore onto a started VM succeeded")
	}
}

func TestRestoreRejectsOutOfRangeCredits(t *testing.T) {
	h := New(sim.NewEngine(), DefaultConfig(1))
	snap := h.SnapshotVM(h.NewVM("a", 1, 256, false))
	snap.VCPUs[0].Credits = creditCap + 1
	if err := h.RestoreVM(h.NewVM("b", 1, 256, false), snap); err == nil {
		t.Fatal("restore with out-of-range credits succeeded")
	}
}

func TestSyncRunstateAccountingExposesAccruingIntervals(t *testing.T) {
	// A vCPU that runs continuously never transitions, so without the
	// sync its running time is invisible to registry readers.
	eng, h, _ := rig(t, DefaultConfig(1), false, 1)
	reg := obs.NewRegistry()
	h.AttachMetrics(reg)
	if err := eng.Run(100 * sim.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	v := h.VMs()[0].VCPUs[0]
	labels := obs.Labels{Sub: "hv", VM: "vma", CPU: v.Name(), Kind: "running"}
	running := func() int64 { return obs.CounterValue(reg, "hv_runstate_ns", labels) }
	before := running()
	h.SyncRunstateAccounting()
	after := running()
	if after < before {
		t.Fatalf("sync moved counter backwards: %d -> %d", before, after)
	}
	// The vCPU ran (alone on its pCPU) for essentially the whole run.
	if after < int64(90*sim.Millisecond) {
		t.Fatalf("running ns after sync = %d, want ≈ %d", after, 100*sim.Millisecond)
	}
	// Idempotent at a fixed instant.
	h.SyncRunstateAccounting()
	if running() != after {
		t.Fatalf("second sync changed counter: %d -> %d", after, running())
	}
}
