package cluster

import (
	"strings"

	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/watch"
)

// This file adapts the cluster's per-host telemetry into the online
// watchdog (internal/watch): pCPU occupancy intervals stream from each
// hypervisor's deschedule choke point straight into the watcher's
// store as they happen (hosts run in index order, so the store sees
// them in host order, and nothing reads it mid-window), per-VM pain
// counters are pushed once per watch epoch, and each host's event log,
// registered in New, feeds the flight recorder. All of it is dormant
// when Config.Watch is nil.

// logicalVMName strips the migration-generation suffix ("srv0#2" ->
// "srv0") so watch signals stay continuous across live migrations.
func logicalVMName(inst string) string {
	name, _, _ := strings.Cut(inst, "#")
	return name
}

// wireWatchHost connects one host's hypervisor occupancy observer to
// the watcher, for attribution. The observer fires during the host's
// window (or a barrier sync) and rolls each interval into the host's
// cached series of that (VM, pCPU) cell, resolving a cell once: every
// instance of a logical VM on a pCPU shares the series.
func (c *Cluster) wireWatchHost(host *Host) {
	pcpus := len(host.HV.PCPUs())
	host.HV.SetOccupancyObserver(func(vm *hypervisor.VM, p *hypervisor.PCPU, dur sim.Time) {
		if dur <= 0 {
			return
		}
		cell := vm.ID*pcpus + p.ID
		if cell >= len(host.occSeries) {
			host.occSeries = append(host.occSeries, make([]*watch.Series, (vm.ID+1)*pcpus-len(host.occSeries))...)
		}
		s := host.occSeries[cell]
		if s == nil {
			s = c.watcher.OccupancySeries(host.name, logicalVMName(vm.Name), p.Name())
			host.occSeries[cell] = s
		}
		watch.ObserveOccupancy(s, host.eng.Now(), dur)
	})
}

// registerWatchVM records (or, after a migration, updates) one VM's
// placement metadata with the watcher.
func (c *Cluster) registerWatchVM(hd *VMHandle) {
	if c.watcher == nil {
		return
	}
	c.watcher.RegisterVM(watch.VMInfo{
		Name:      hd.Spec.Name,
		Host:      hd.host.Name(),
		VCPUs:     hd.Spec.VCPUs,
		Sensitive: hd.Spec.Sensitive,
	})
}

// feedWatcher runs at the top of every watch epoch (a barrier task, all
// shards parked): it flushes the accruing runstate and occupancy
// intervals on every host, whose observers roll them into the store,
// then pushes each admitted VM's pain (preempt-wait + steal) since the
// last epoch so the watcher can window it. Each VM's series is
// resolved once per placement; a migration changes its host label, so
// the feed re-resolves then. Migration also restarts the instance's
// counters, and the delta clamp absorbs the reset, as Watcher.FeedPain
// does.
func (c *Cluster) feedWatcher(now sim.Time) {
	for _, h := range c.hosts {
		// Not a pure read: the fold cuts in-progress preempt waits, so
		// removing it would move the incident goldens.
		h.HV.SyncRunstateAccounting()
		h.HV.SyncOccupancyAccounting()
	}
	for _, hd := range c.vms {
		if !hd.admitted || hd.vm == nil {
			continue
		}
		if hd.painHost != hd.host {
			hd.painSeries = c.watcher.PainSeries(hd.host.Name(), hd.Spec.Name)
			hd.painHost = hd.host
		}
		cum := hd.vm.TotalStealTime() + hd.vm.PreemptWait
		watch.ObservePain(hd.painSeries, now, max(cum-hd.lastPain, 0))
		hd.lastPain = cum
	}
}
