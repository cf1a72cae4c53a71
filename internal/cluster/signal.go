package cluster

import "repro/internal/sim"

// The interference signal is read from each hypervisor's own runstate
// accounting, as a Xen guest reads VCPUOP_get_runstate: cumulative
// per-vCPU running (busy) and runnable (steal) nanoseconds, each VM's
// summed preempt wait, and its lock-holder-preemption count. RunTime
// and StealTime already include the accruing interval, but
// hostCumulative still calls SyncRunstateAccounting first: the fold
// cuts in-progress preempt waits short (see its doc), so dropping it
// would move placement.

// hostCumulative sums the host's cumulative signal over every VM
// instance it has booted (HV.VMs, in boot order, retired migration
// sources included), in nanoseconds (busy, steal, wait) and events
// (lhp). The sums are of integer nanoseconds, so they are exact.
func hostCumulative(h *Host) (busy, steal, wait, lhp float64) {
	// Not a pure read: see the file comment.
	h.HV.SyncRunstateAccounting()
	for _, vm := range h.HV.VMs() {
		busy += float64(vm.TotalRunTime())
		steal += float64(vm.TotalStealTime())
		wait += float64(vm.PreemptWait)
		lhp += float64(vm.LHPCount)
	}
	return busy, steal, wait, lhp
}

// refreshSignals recomputes every host's windowed interference
// fractions and every server VM's steal delta since the last refresh.
// A zero-length window keeps the previous values. Barrier context: it
// reads (and syncs) every host's hypervisor.
func (c *Cluster) refreshSignals() {
	now := c.sh.Now()
	window := float64(now - c.lastRefresh)
	if window <= 0 {
		return
	}
	c.lastRefresh = now
	for _, h := range c.hosts {
		busy, steal, wait, lhp := hostCumulative(h)
		norm := window * float64(c.cfg.PCPUsPerHost)
		h.busyFrac = (busy - h.prevBusy) / norm
		h.stealFrac = (steal - h.prevSteal) / norm
		h.waitFrac = (wait - h.prevWait) / norm
		h.lhpRate = (lhp - h.prevLHP) / (window / float64(sim.Second))
		h.prevBusy, h.prevSteal, h.prevWait, h.prevLHP = busy, steal, wait, lhp
	}
	for _, hd := range c.servers {
		if !hd.admitted || hd.vm == nil {
			continue
		}
		steal := float64(hd.vm.TotalStealTime())
		hd.stealFrac = (steal - hd.prevSteal) / (window * float64(hd.Spec.VCPUs))
		if hd.stealFrac < 0 {
			hd.stealFrac = 0
		}
		hd.prevSteal = steal
	}
}
