package hypervisor

import "repro/internal/sim"

// Strict co-scheduling, as in VMware ESX 2.x (§2.1): all vCPUs of an
// SMP VM are scheduled and descheduled synchronously. The machine
// alternates gang slots: during a multi-vCPU VM's slot its vCPUs own
// the pCPUs exclusively — including pCPUs its blocked vCPUs leave idle
// (CPU fragmentation) — and during free slots the remaining VMs run.
// LHP and LWP cannot occur inside a gang slot (no sibling is ever
// preempted mid-critical-section), which is the approach's selling
// point; the fragmentation and the rigid slot rotation are its cost.

// strictCoRotate advances the gang rotation. Slots alternate between
// each multi-vCPU VM and a free slot for everyone else:
// [gang0, free, gang1, free, ...].
func (h *Hypervisor) strictCoRotate() {
	now := h.eng.Now()
	gangs := h.gangVMs()
	if len(gangs) == 0 {
		return
	}
	h.gangSlot++
	slot := h.gangSlot % (2 * len(gangs))
	var active *VM
	if slot%2 == 0 {
		active = gangs[slot/2]
	}
	h.gangActive = active

	until := now + timeslice + sim.Microsecond
	for _, vm := range h.vms {
		gang := len(vm.VCPUs) >= 2
		for _, v := range vm.VCPUs {
			if v.state == StateOffline {
				continue
			}
			runsThisSlot := (active == nil && !gang) || vm == active
			if runsThisSlot {
				v.parkedUntil = 0
				if v.prio > PrioBoost {
					v.prio = PrioBoost // co-start the gang promptly
				}
			} else {
				v.parkedUntil = until
			}
		}
	}
	// Evict current occupants that do not belong to this slot, then let
	// the slot's vCPUs on.
	for _, p := range h.pcpus {
		if cur := p.current; cur != nil && cur.parkedUntil > now && !p.saWait {
			h.deschedule(p, StateRunnable, true)
		}
		h.checkPreempt(p)
	}
}

// gangVMs lists multi-vCPU VMs with at least one schedulable vCPU.
func (h *Hypervisor) gangVMs() []*VM {
	var out []*VM
	for _, vm := range h.vms {
		if len(vm.VCPUs) < 2 {
			continue
		}
		for _, v := range vm.VCPUs {
			if v.state != StateOffline {
				out = append(out, vm)
				break
			}
		}
	}
	return out
}
