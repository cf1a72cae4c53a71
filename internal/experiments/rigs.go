package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/watch"
)

// Every cluster rig in the repo is a declarative load spec
// (topology.ParseLoadSpec) with a name: the rows of the scale, cluster
// and watch tables, the irsload variants, and the irsweep -cluster
// columns. ScaleConfig is the one compiler from spec to cluster.Config.

// ScaleOutageSpec is the acceptance rig: 2 zones × 8 hosts with a
// mid-ramp outage of zone 1 (1.2s dark at t=6s) while the arrival rate
// ramps up; the burn-rate alert trips, the autoscaler adds replicas in
// the surviving zone, and after the zone returns the added replicas
// drain away again. Shared with cmd/irsload and the CI smoke gate.
const ScaleOutageSpec = "topo:zones=2,hosts=8,pcpus=4; sched:policy=ia,strategy=irs,migrate=on; " +
	"load:arrival=1500us,service=2ms,slo=25ms,duration=12s,drain=3s; " +
	"ramp:1500us@0,1ms@2s,450us@4s; " +
	"tenants:servers=2,server-vcpus=2,ants=2,ant-vcpus=2,spacing=400ms; " +
	"outage:zone=1,at=6s,for=1200ms; " +
	"alert:budget=0.02,fast=500ms,slow=2s,burn=3; " +
	"autoscale:max=8,step=2,cooldown=1500ms,down-after=1500ms"

// clusterRig is the consolidation rig the cluster rows share, under
// the row's sched section: three 4-pCPU hosts, a 20-second request
// stream, and four 2-vCPU servers interleaved with four 2-vCPU
// antagonists a second apart.
func clusterRig(sched string) string {
	return "topo:zones=1,hosts=3,pcpus=4; sched:" + sched + "; " +
		"load:arrival=1250us,service=2ms,slo=20ms,duration=20s,drain=2s; " +
		"tenants:servers=4,server-vcpus=2,ants=4,ant-vcpus=2,spacing=1s"
}

// watchRig is the watchdog rig: two 4-pCPU hosts under least-loaded
// placement with no migration (the point is to watch the pain, not
// dodge it). Arrival order is engineered so the sensitive server shares
// its host with one small hog while a bigger hog sits across the rack:
// srv0 (2 vCPUs) -> h0, ant-far (3 vCPUs) -> h1, ant-near (1 vCPU) ->
// h0. The page rule fires when >3x the 2% violation budget burns over
// both the 500ms fast window and the 2.5s slow window.
const watchRig = "topo:zones=1,hosts=2,pcpus=4; " +
	"sched:policy=least-loaded,strategy=vanilla,overcommit=2,migrate=off; " +
	"load:arrival=1ms,service=1500us,slo=30ms,duration=10s,drain=2s; " +
	"alert:name=page,budget=0.02,fast=500ms,slow=2500ms,burn=3; " +
	"tenants:servers=0; vm:name=srv0,kind=server,vcpus=2; " +
	"vm:name=ant-far,kind=ant,vcpus=3,at=100ms; vm:name=ant-near,kind=ant,vcpus=1,at=200ms"

// Rig is one named cluster rig: a row of Table, run from Spec.
type Rig struct {
	Name, Table, Spec string
}

// Rigs lists every named rig, table by table in row order:
//   - scale: a flat single-zone baseline, a two-zone rig under a
//     diurnal arrival curve, and the two-zone outage + autoscaler
//     acceptance rig;
//   - cluster: the two placement baselines, interference-aware
//     placement alone, the full stack (interference-aware placement +
//     IRS inside each host), and the full stack under chaos (fault.
//     LossPlan(0.10) in every host plus a 60 ms host blackout every 6 s);
//   - watch: the watchdog rig quiet, then with a bully that lands at 4s
//     and buys its way to the CPU (4 vCPUs at 8x the default credit
//     weight): least-loaded ties 3=3 and puts it on h0, next to the
//     victim, where it takes ~2/3 of the host.
func Rigs() []Rig {
	return []Rig{
		{"1z4h", "scale", "topo:zones=1,hosts=4,pcpus=4; sched:policy=ia,strategy=irs,migrate=on; " +
			"load:arrival=1500us,service=2ms,slo=25ms,duration=12s,drain=2s; " +
			"tenants:servers=2,server-vcpus=2,ants=2,ant-vcpus=2,spacing=400ms"},
		{"2z4h-diurnal", "scale", "topo:zones=2,hosts=4,pcpus=4; sched:policy=ia,strategy=irs,migrate=on; " +
			"load:arrival=1500us,service=2ms,slo=25ms,duration=12s,drain=2s; " +
			"diurnal:period=6s,swing=0.4,steps=12; " +
			"tenants:servers=2,server-vcpus=2,ants=2,ant-vcpus=2,spacing=400ms"},
		{"2z8h-outage", "scale", ScaleOutageSpec},
		{"first-fit", "cluster", clusterRig("policy=first-fit,strategy=vanilla,migrate=off")},
		{"least-loaded", "cluster", clusterRig("policy=least-loaded,strategy=vanilla,migrate=off")},
		{"ia", "cluster", clusterRig("policy=ia,strategy=vanilla,migrate=on")},
		{"ia+irs", "cluster", clusterRig("policy=ia,strategy=irs,migrate=on")},
		{"ia+irs+chaos", "cluster", clusterRig("policy=ia,strategy=irs,migrate=on") + "; " +
			"faults:drop-sa=0.1,dup-sa=0.05,delay-sa=30us,drop-wake=0.025,ack-loss=0.05,stale-runstate=200us," +
			"host-blackout-every=6s,host-blackout-for=60ms"},
		{"quiet", "watch", watchRig},
		{"bully", "watch", watchRig + "; vm:name=bully,kind=ant,vcpus=4,weight=2048,at=4s"},
	}
}

// RigByName resolves a rig by its name.
func RigByName(name string) (Rig, bool) {
	for _, r := range Rigs() {
		if r.Name == name {
			return r, true
		}
	}
	return Rig{}, false
}

// TableRigs returns one table's rigs in row order.
func TableRigs(table string) []Rig {
	var out []Rig
	for _, r := range Rigs() {
		if r.Table == table {
			out = append(out, r)
		}
	}
	return out
}

// ScaleConfig compiles a parsed load spec into a cluster config. The
// spec layer (internal/topology) stays free of cluster imports; this
// is the one place the two vocabularies meet. Every rig runs the
// invariant checker.
func ScaleConfig(spec topology.LoadSpec, seed uint64) (cluster.Config, error) {
	cfg := cluster.Config{
		Hosts: spec.Zones * spec.HostsPerZone, PCPUsPerHost: spec.PCPUs, Topology: spec.Topology(),
		Overcommit: spec.Overcommit, Migration: spec.Migrate, Seed: seed,
		Duration: spec.Duration, Drain: spec.Drain, Ramp: spec.Stages(),
		Arrival: spec.Arrival, Service: spec.Service, SLO: spec.SLO,
		Invariants: true,
	}
	switch spec.Policy {
	case "first-fit":
		cfg.Policy = cluster.FirstFit
	case "least-loaded":
		cfg.Policy = cluster.LeastLoaded
	case "ia":
		cfg.Policy = cluster.InterferenceAware
	default:
		return cluster.Config{}, fmt.Errorf("experiments: scale: unknown policy %q", spec.Policy)
	}
	strat, ok := core.StrategyByName(spec.Strategy)
	if !ok {
		return cluster.Config{}, fmt.Errorf("experiments: scale: unknown strategy %q", spec.Strategy)
	}
	cfg.Strategy = strat

	cfg.VMs = cluster.StandardMix(
		spec.ServersPerZone*spec.Zones, spec.ServerVCPUs,
		spec.AntsPerZone*spec.Zones, spec.AntVCPUs, spec.Spacing)
	if spec.ServerThreads > 0 {
		for i := range cfg.VMs {
			if cfg.VMs[i].Kind == cluster.KindServer {
				cfg.VMs[i].Threads = spec.ServerThreads
			}
		}
	}
	for _, v := range spec.VMs {
		kind := cluster.KindAntagonist
		if v.Kind == "server" {
			kind = cluster.KindServer
		}
		vm := cluster.StandardVM(v.Name, kind, v.VCPUs, v.At)
		vm.Weight = v.Weight
		cfg.VMs = append(cfg.VMs, vm)
	}

	if f := spec.Faults; !f.Zero() {
		cfg.Faults = f.Plan
		cfg.HostBlackoutEvery, cfg.HostBlackoutFor = f.HostBlackoutEvery, f.HostBlackoutFor
		// A faulted rack rides on the hardened profile (the chaos
		// table's irs-hardened defenses): without wakeup-loss polling,
		// a lost wakeup strands an idle server worker for good.
		cfg.TuneHV = hardenHV
		cfg.TuneGuest = hardenGuest
	}
	for _, o := range spec.Outages {
		cfg.ZoneOutages = append(cfg.ZoneOutages, cluster.ZoneOutage{Zone: o.Zone, At: o.At, For: o.For})
	}
	if a := spec.Alert; a != nil {
		cfg.Watch = &watch.Config{Rules: []watch.Rule{*a}}
	}
	if as := spec.Autoscale; as != nil {
		tmpl := cluster.StandardVM(topology.AutoscaleName, cluster.KindServer, spec.ServerVCPUs, 0)
		if spec.ServerThreads > 0 {
			tmpl.Threads = spec.ServerThreads
		}
		cfg.Autoscale = &cluster.AutoscaleConfig{
			Template: tmpl,
			Min:      as.Min, Max: as.Max, Step: as.Step,
			Interval: as.Interval, Cooldown: as.Cooldown, DownAfter: as.DownAfter,
		}
	}
	if len(spec.Outages) > 0 {
		// Three SLO phases: before the first outage, the outage plus a
		// settle second, and the recovered tail (the acceptance gate).
		o := spec.Outages[0]
		cfg.SLOPhases = []sim.Time{o.At, o.At + o.For + sim.Second}
	}
	return cfg, nil
}

// ScaleRig parses load-spec text and compiles it with ScaleConfig.
func ScaleRig(text string, seed uint64) (topology.LoadSpec, cluster.Config, error) {
	spec, err := topology.ParseLoadSpec(text)
	if err != nil {
		return spec, cluster.Config{}, err
	}
	cfg, err := ScaleConfig(spec, seed)
	return spec, cfg, err
}

// runCluster builds and runs one cluster-backed simulation.
func runCluster(cfg cluster.Config) (*cluster.Cluster, *cluster.Result, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := c.Run()
	return c, res, err
}

// fmtLatency renders a latency in milliseconds.
func fmtLatency(t sim.Time) string {
	return fmt.Sprintf("%.3fms", float64(t)/float64(sim.Millisecond))
}
