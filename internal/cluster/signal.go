package cluster

import (
	"repro/internal/hypervisor"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The interference signal is read from each host's obs registry — the
// same telemetry a real deployment scrapes: cumulative per-vCPU
// runstate nanoseconds (running = busy, runnable = steal), the per-VM
// preempt-wait histograms, and the lock-holder-preemption counters.
// Runstate counters advance on transitions, so the reader first asks
// the hypervisor to fold the accruing intervals in
// (SyncRunstateAccounting); the registry then holds exact values.
//
// The handles are looked up once per VM instance, at boot: registry
// entries are never replaced, so a handle found then is the one every
// later lookup would return, and a refresh epoch reads counters without
// rebuilding label keys.

// vmSignal is one VM instance's interference-signal handles in its
// host's registry; a nil handle (metric absent) reads as zero.
type vmSignal struct {
	wait     *obs.Histogram // hv_preempt_wait_ns
	lhp      *obs.Counter   // hv_lhp_total
	running  []*obs.Counter // hv_runstate_ns{kind="running"}, per vCPU
	runnable []*obs.Counter // hv_runstate_ns{kind="runnable"}, per vCPU
}

// resolveSignal looks up vm's signal handles in reg.
func resolveSignal(reg *obs.Registry, vm *hypervisor.VM) *vmSignal {
	vmL := obs.Labels{Sub: "hv", VM: vm.Name}
	s := &vmSignal{
		wait:     reg.FindHistogram("hv_preempt_wait_ns", vmL),
		lhp:      reg.FindCounter("hv_lhp_total", vmL),
		running:  make([]*obs.Counter, len(vm.VCPUs)),
		runnable: make([]*obs.Counter, len(vm.VCPUs)),
	}
	for i, v := range vm.VCPUs {
		l := obs.Labels{Sub: "hv", VM: vm.Name, CPU: v.Name(), Kind: "running"}
		s.running[i] = reg.FindCounter("hv_runstate_ns", l)
		l.Kind = "runnable"
		s.runnable[i] = reg.FindCounter("hv_runstate_ns", l)
	}
	return s
}

// hostCumulative sums the host's cumulative signal counters over every
// VM instance it has booted, in nanoseconds (busy, steal, wait) and
// events (lhp).
func hostCumulative(h *Host) (busy, steal, wait, lhp float64) {
	h.HV.SyncRunstateAccounting()
	for _, s := range h.signals {
		wait += float64(s.wait.Sum())
		lhp += float64(s.lhp.Value())
		b, st := s.runstates()
		busy += b
		steal += st
	}
	return busy, steal, wait, lhp
}

// runstates reads the VM's summed running/runnable nanoseconds.
func (s *vmSignal) runstates() (busy, steal float64) {
	for i, run := range s.running {
		busy += float64(run.Value())
		steal += float64(s.runnable[i].Value())
	}
	return busy, steal
}

// refreshSignals recomputes every host's windowed interference
// fractions and every server VM's steal delta since the last refresh.
// A zero-length window keeps the previous values. Barrier context: it
// reads (and syncs) every host's registry.
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
		_, steal := hd.sig.runstates()
		hd.stealFrac = (steal - hd.prevSteal) / (window * float64(hd.Spec.VCPUs))
		if hd.stealFrac < 0 {
			hd.stealFrac = 0
		}
		hd.prevSteal = steal
	}
}
