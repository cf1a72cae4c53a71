package hypervisor

import "fmt"

// This file holds the hypervisor half of whole-VM migration: extracting
// a scheduler-state snapshot of a VM on the source host and seeding a
// freshly created VM on the destination host with it. The cluster layer
// models the data-plane costs (pre-copy delay, switchover pause) and
// carries the guest's queued work; the hypervisor contributes the
// scheduler state so credit balances and priorities survive the move
// instead of resetting to a fresh VM's defaults.

// VCPUSnapshot carries one vCPU's scheduler state across a migration.
type VCPUSnapshot struct {
	Credits int
	Prio    Priority
}

// VMSnapshot is the migratable scheduler state of a whole VM.
type VMSnapshot struct {
	Weight int
	VCPUs  []VCPUSnapshot
}

// SnapshotVM captures vm's migratable scheduler state at the current
// instant. The VM keeps running on the source host; pre-copy rounds are
// modeled by the caller as delay before the switchover pause.
func (h *Hypervisor) SnapshotVM(vm *VM) VMSnapshot {
	snap := VMSnapshot{Weight: vm.Weight}
	for _, v := range vm.VCPUs {
		snap.VCPUs = append(snap.VCPUs, VCPUSnapshot{Credits: v.credits, Prio: v.prio})
	}
	return snap
}

// RestoreVM seeds a freshly created, not-yet-started VM with the
// scheduler state from snap. It must run before StartVCPU so the
// restored credit balances take effect on first dispatch. The vCPU
// count must match. Runstate clocks, preempt wait and the LHP/LWP
// counters restart from zero: they are per-host accounting and stay
// with the source. A BOOST priority does not survive the move — the
// destination treats the vCPU as a plain wakeup.
func (h *Hypervisor) RestoreVM(vm *VM, snap VMSnapshot) error {
	if len(vm.VCPUs) != len(snap.VCPUs) {
		return fmt.Errorf("hypervisor: restore %s: VM has %d vCPUs, snapshot has %d",
			vm.Name, len(vm.VCPUs), len(snap.VCPUs))
	}
	for _, v := range vm.VCPUs {
		if v.started || v.state != StateOffline {
			return fmt.Errorf("hypervisor: restore %s: %s is already started", vm.Name, v.Name())
		}
	}
	for i, v := range vm.VCPUs {
		s := snap.VCPUs[i]
		if s.Credits < creditFloor || s.Credits > creditCap {
			return fmt.Errorf("hypervisor: restore %s: snapshot credits %d outside [%d, %d]",
				vm.Name, s.Credits, creditFloor, creditCap)
		}
		v.credits = s.Credits
		switch s.Prio {
		case PrioBoost, 0:
			v.prio = PrioUnder
		default:
			v.prio = s.Prio
		}
	}
	vm.Weight = snap.Weight
	return nil
}

// SyncRunstateAccounting folds every started vCPU's currently accruing
// runstate interval into its cumulative counters. The folded counters,
// which the hv_runstate_ns views read, normally advance only on state
// transitions, so a vCPU that runs (or starves) continuously is
// invisible to registry readers until its next transition; RunTime and
// StealTime include the accruing interval either way.
//
// It is not a pure read: the fold restarts each vCPU's stateSince, and
// startRunning measures a preempt-wait sample from stateSince, so a
// runnable vCPU's next wait sample (hv_preempt_wait_ns and
// VM.PreemptWait) loses the part accrued before the call. An extra
// caller therefore changes later wait readings and every decision
// taken from them, such as cluster placement. relaxedCoAccount's fold
// every accounting period cuts waits the same way.
func (h *Hypervisor) SyncRunstateAccounting() {
	for _, vm := range h.vms {
		for _, v := range vm.VCPUs {
			if v.started {
				v.setState(v.state)
			}
		}
	}
}
