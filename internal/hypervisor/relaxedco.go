package hypervisor

import "repro/internal/sim"

// Relaxed co-scheduling, re-implemented the way the paper's authors did
// for Xen (§5.1): every accounting period (30 ms) the hypervisor
// measures per-vCPU progress within the period for each SMP VM. A vCPU
// "makes progress" while it executes guest instructions *or while it is
// idle* — the deceptive-idleness flaw the paper analyses (§5.2, §5.6).
// When the skew between the most and least progressed sibling exceeds
// the threshold, the leading vCPU is stopped and the most lagging
// sibling is boosted so it can catch up ("when a VM's leading vCPU is
// stopped, the hypervisor switches it with its slowest sibling vCPU to
// boost the execution of this lagging vCPU").

func (h *Hypervisor) relaxedCoAccount() {
	now := h.eng.Now()
	for _, vm := range h.vms {
		if len(vm.VCPUs) < 2 {
			continue
		}
		var leader, laggard *VCPU
		var maxP, minP sim.Time
		for _, v := range vm.VCPUs {
			if v.state == StateOffline {
				continue
			}
			// Fold the in-progress interval into the window counters.
			v.setState(v.state)
			p := v.windowRun + v.windowBlocked
			v.windowLastProgress = p
			if leader == nil || p > maxP {
				leader, maxP = v, p
			}
			if laggard == nil || p < minP {
				laggard, minP = v, p
			}
		}
		for _, v := range vm.VCPUs {
			v.windowRun, v.windowBlocked = 0, 0
		}
		if leader == nil || laggard == nil || leader == laggard {
			continue
		}
		skew := maxP - minP
		if skew <= coSkewThreshold {
			continue
		}
		// Only act when the laggard is actually starving in a runqueue;
		// a running or blocked laggard needs no help.
		if laggard.state != StateRunnable {
			continue
		}
		// Stop every vCPU that leads the laggard by more than the
		// threshold; they stay stopped (and stop drawing credits) until
		// the laggard has caught up or the park cap expires.
		var firstParked *VCPU
		for _, v := range vm.VCPUs {
			lead := v.windowLastProgress - minP
			if v == laggard || v.state == StateOffline || lead <= coSkewThreshold {
				continue
			}
			h.coPark(v, laggard, skew, now)
			if firstParked == nil {
				firstParked = v
			}
		}
		// Unpinned: the laggard takes over a stopped leader's pCPU —
		// the swap that spreads stacked siblings onto separate cores.
		if firstParked != nil && laggard.pinned == nil && firstParked.pinned == nil &&
			laggard.assigned != firstParked.assigned {
			if laggard.assigned.dequeue(laggard) {
				old := laggard.assigned
				laggard.assigned = firstParked.assigned
				firstParked.assigned = old
				if firstParked.state == StateRunnable {
					// Move the parked leader's queue entry to its new home.
					for _, q := range h.pcpus {
						if q.dequeue(firstParked) {
							break
						}
					}
					firstParked.assigned.enqueue(firstParked)
				}
				laggard.assigned.enqueue(laggard)
				h.vcpuMigrations++
			}
		}
		h.coBoostLaggard(laggard)
	}
}

// coPark stops a leading vCPU until the laggard catches up (by running
// the observed skew) or the park cap, one accounting period plus one
// credit tick, elapses.
func (h *Hypervisor) coPark(leader, laggard *VCPU, skew sim.Time, now sim.Time) {
	// Mark the park before descheduling so the dispatcher cannot
	// immediately re-run the leader.
	leader.parkedUntil = now + accountPeriod + CreditTick
	leader.parkCatchRef = laggard
	leader.parkCatchTarget = laggard.RunTime() + skew
	lv := leader
	h.eng.At(leader.parkedUntil, func() {
		h.checkPreempt(lv.assigned)
	})
	if leader.state == StateRunning && leader.pcpu != nil {
		p := leader.pcpu
		h.deschedule(p, StateRunnable, true)
		h.dispatch(p)
	}
}

// coBoostLaggard requeues the laggard with BOOST priority so it
// outranks the competing VM's vCPU at the next preemption check.
func (h *Hypervisor) coBoostLaggard(laggard *VCPU) {
	laggard.assigned.dequeue(laggard)
	if laggard.prio > PrioBoost {
		laggard.prio = PrioBoost
	}
	laggard.assigned.enqueue(laggard)
	h.checkPreempt(laggard.assigned)
}

// coUnparkScan runs from the per-pCPU tick: it releases parked vCPUs
// whose laggard has caught up.
func (h *Hypervisor) coUnparkScan(p *PCPU) {
	now := h.eng.Now()
	released := false
	for _, v := range p.runq {
		if v.parkedUntil <= now || v.parkCatchRef == nil {
			continue
		}
		if v.parkCatchRef.RunTime() >= v.parkCatchTarget {
			v.parkedUntil = 0
			v.parkCatchRef = nil
			released = true
		}
	}
	if released {
		h.checkPreempt(p)
	}
}
