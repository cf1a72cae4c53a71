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
	cfg := DefaultConfig(1)
	cfg.Metrics = obs.NewRegistry()
	eng, h, _ := rig(t, cfg, false, 1)
	if err := eng.Run(100 * sim.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	v := h.VMs()[0].VCPUs[0]
	labels := obs.Labels{Sub: "hv", VM: "vma", CPU: v.Name(), Kind: "running"}
	ctr := cfg.Metrics.FindCounter("hv_runstate_ns", labels)
	if ctr == nil {
		t.Fatal("hv_runstate_ns counter not registered")
	}
	before := ctr.Value()
	h.SyncRunstateAccounting()
	after := ctr.Value()
	if after < before {
		t.Fatalf("sync moved counter backwards: %d -> %d", before, after)
	}
	// The vCPU ran (alone on its pCPU) for essentially the whole run.
	if after < int64(90*sim.Millisecond) {
		t.Fatalf("running ns after sync = %d, want ≈ %d", after, 100*sim.Millisecond)
	}
	// Idempotent at a fixed instant.
	h.SyncRunstateAccounting()
	if ctr.Value() != after {
		t.Fatalf("second sync changed counter: %d -> %d", after, ctr.Value())
	}
}

func TestNativeAccountingMatchesRegistry(t *testing.T) {
	// The cluster's interference signal and the watchdog's pain feed
	// read PreemptWait, LHPCount and RunTime/StealTime instead of the
	// registry; pin that they report what the registry does.
	for _, s := range []Strategy{StrategyVanilla, StrategyRelaxedCo} {
		cfg := DefaultConfig(2)
		cfg.Strategy = s
		cfg.Metrics = obs.NewRegistry()
		eng, h, gs := rig(t, cfg, true, 2, 2, 1)
		for _, g := range gs[0] {
			g.preempted = PreemptLockHolder
		}
		eng.Every(70*sim.Millisecond, h.SyncRunstateAccounting)
		if err := eng.Run(sim.Second); err != nil {
			t.Fatalf("%v: run: %v", s, err)
		}
		h.SyncRunstateAccounting()
		var wait sim.Time
		var lhp int64
		for _, vm := range h.VMs() {
			vmL := obs.Labels{Sub: "hv", VM: vm.Name}
			if got := cfg.Metrics.FindHistogram("hv_preempt_wait_ns", vmL).Sum(); vm.PreemptWait != got {
				t.Errorf("%v %s: PreemptWait = %d, histogram sum = %d", s, vm.Name, vm.PreemptWait, got)
			}
			if got := cfg.Metrics.FindCounter("hv_lhp_total", vmL).Value(); vm.LHPCount != got {
				t.Errorf("%v %s: LHPCount = %d, hv_lhp_total = %d", s, vm.Name, vm.LHPCount, got)
			}
			for _, v := range vm.VCPUs {
				l := obs.Labels{Sub: "hv", VM: vm.Name, CPU: v.Name(), Kind: "running"}
				run := cfg.Metrics.FindCounter("hv_runstate_ns", l).Value()
				l.Kind = "runnable"
				steal := cfg.Metrics.FindCounter("hv_runstate_ns", l).Value()
				if int64(v.RunTime()) != run || int64(v.StealTime()) != steal {
					t.Errorf("%v %s: run/steal = %d/%d, registry %d/%d", s, v.Name(), v.RunTime(), v.StealTime(), run, steal)
				}
			}
			wait += vm.PreemptWait
			lhp += vm.LHPCount
		}
		if wait == 0 || lhp == 0 {
			t.Fatalf("%v: rig too quiet to compare: wait %d, lhp %d", s, wait, lhp)
		}
	}
}
