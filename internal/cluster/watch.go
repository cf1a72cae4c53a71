package cluster

import (
	"strings"

	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/watch"
)

// This file adapts the cluster's per-host telemetry into the online
// watchdog (internal/watch): pCPU occupancy intervals stream from each
// hypervisor's deschedule choke point straight into the watcher's
// store as they happen (hosts run in index order, so the store sees
// them in host order, and nothing reads it mid-window), per-VM pain
// counters are pushed once per watch epoch, and each host's bounded
// event log feeds the flight recorder. All of it is dormant when
// Config.Watch is nil.

// logicalVMName strips the migration-generation suffix ("srv0#2" ->
// "srv0") so watch signals stay continuous across live migrations.
func logicalVMName(inst string) string {
	name, _, _ := strings.Cut(inst, "#")
	return name
}

// wireWatchHost connects one host's hypervisor to the watcher: the
// occupancy observer for attribution and the event log for incident
// bundles. The observer fires during the host's window (or a barrier
// sync) and rolls each interval into the host's cached series.
func (c *Cluster) wireWatchHost(host *Host, tl *trace.Log) {
	host.occSeries = map[occKey]*watch.Series{}
	host.HV.SetOccupancyObserver(func(vm *hypervisor.VM, p *hypervisor.PCPU, dur sim.Time) {
		if dur <= 0 {
			return
		}
		key := occKey{vm: logicalVMName(vm.Name), pcpu: p.Name()}
		s := host.occSeries[key]
		if s == nil {
			s = c.watcher.OccupancySeries(host.name, key.vm, key.pcpu)
			host.occSeries[key] = s
		}
		watch.ObserveOccupancy(s, host.eng.Now(), dur)
	})
	if tl != nil {
		c.watcher.Recorder().AddHostLog(host.Name(), tl)
	}
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
