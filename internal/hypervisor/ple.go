package hypervisor

import "repro/internal/sim"

// Pause-loop exiting (PLE). Real hardware counts PAUSE instructions in
// a tight loop and raises a VM-exit when a vCPU spins too long; Xen's
// handler then yields the vCPU. The simulated guest reports when the
// running task enters or leaves a PAUSE spin loop; with StrategyPLE the
// hypervisor arms a window and forces a yield when it expires while the
// vCPU is still spinning.

// SpinBegin tells the hypervisor that the vCPU entered a PAUSE loop.
// Guests call it when a task starts spinning and again on resume if the
// current task is still spinning.
func (h *Hypervisor) SpinBegin(v *VCPU) {
	if h.cfg.Strategy != StrategyPLE || v.state != StateRunning {
		return
	}
	if v.spinningSince != 0 {
		return
	}
	v.spinningSince = h.eng.Now()
	v.pleEvent = h.eng.After(pleWindow, v.pleFn)
}

// SpinEnd tells the hypervisor the vCPU stopped spinning (lock acquired
// or the spinning task was switched out by the guest).
func (h *Hypervisor) SpinEnd(v *VCPU) {
	if v.spinningSince == 0 {
		return
	}
	v.spinningSince = 0
	h.eng.Cancel(v.pleEvent)
	v.pleEvent = sim.EventRef{}
}

// stopPLEWindow is invoked from deschedule: the window only measures
// continuous spinning while executing.
func (h *Hypervisor) stopPLEWindow(v *VCPU) {
	h.SpinEnd(v)
}

// pleExit is the VM-exit: the spinning vCPU is forced to yield. In the
// credit scheduler a yielding vCPU queues behind its priority class, so
// a competing VM's vCPU typically runs next (the behaviour §5.2 blames
// for PLE's poor showing on blocking workloads).
func (h *Hypervisor) pleExit(v *VCPU) {
	if v.spinningSince == 0 || v.state != StateRunning || v.pcpu == nil {
		return
	}
	p := v.pcpu
	if p.saWait {
		return
	}
	if p.peek(h.eng.Now()) == nil {
		// Nobody to yield to; keep spinning and re-arm the window.
		v.pleEvent = h.eng.After(pleWindow, v.pleFn)
		return
	}
	v.spinningSince = 0
	v.pleEvent = sim.EventRef{}
	v.yieldHint = true
	h.pleYields++
	h.deschedule(p, StateRunnable, false)
	h.dispatch(p)
}
