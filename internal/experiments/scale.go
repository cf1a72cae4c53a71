package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/watch"
)

// The scale experiment drives the multi-rack control plane with
// declarative cluster-load specs (topology.ParseLoadSpec): zones under
// two-level interference-aware placement, the partitioned per-zone
// router, arrival ramps and diurnal curves, injected zone outages, and
// the burn-rate replica autoscaler. The table reports p99 / SLO-
// violation rate as the rack count grows, and — for the outage row —
// whether the control plane actually rode through the failure: the
// router fails over to the surviving zone, the autoscaler restores
// serving capacity, and the post-recovery SLO-violation rate drops
// back under 1% with every invariant clean.

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

// ScaleVariant is one row of the scale table: a named load spec.
type ScaleVariant struct {
	Name string
	Spec string
}

// ScaleVariants lists the comparison rows in table order: a flat
// single-zone baseline, a two-zone rig under a diurnal arrival curve,
// and the two-zone outage + autoscaler acceptance rig.
func ScaleVariants() []ScaleVariant {
	return []ScaleVariant{
		{Name: "1z4h", Spec: "topo:zones=1,hosts=4,pcpus=4; sched:policy=ia,strategy=irs,migrate=on; " +
			"load:arrival=1500us,service=2ms,slo=25ms,duration=12s,drain=2s; " +
			"tenants:servers=2,server-vcpus=2,ants=2,ant-vcpus=2,spacing=400ms"},
		{Name: "2z4h-diurnal", Spec: "topo:zones=2,hosts=4,pcpus=4; sched:policy=ia,strategy=irs,migrate=on; " +
			"load:arrival=1500us,service=2ms,slo=25ms,duration=12s,drain=2s; " +
			"diurnal:period=6s,swing=0.4,steps=12; " +
			"tenants:servers=2,server-vcpus=2,ants=2,ant-vcpus=2,spacing=400ms"},
		{Name: "2z8h-outage", Spec: ScaleOutageSpec},
	}
}

// ScaleVariantByName resolves a variant by its table name.
func ScaleVariantByName(name string) (ScaleVariant, bool) {
	for _, v := range ScaleVariants() {
		if v.Name == name {
			return v, true
		}
	}
	return ScaleVariant{}, false
}

// ScaleConfig compiles a parsed load spec into a cluster config. The
// spec layer (internal/topology) stays free of cluster imports; this
// is the one place the two vocabularies meet.
func ScaleConfig(spec topology.LoadSpec, seed uint64) (cluster.Config, error) {
	cfg := cluster.DefaultConfig()
	cfg.Seed = seed
	cfg.Hosts = spec.Zones * spec.HostsPerZone
	cfg.PCPUsPerHost = spec.PCPUs
	cfg.Topology = spec.Topology()

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

	cfg.Overcommit = spec.Overcommit
	cfg.Migration = spec.Migrate
	cfg.Duration = spec.Duration
	cfg.Drain = spec.Drain
	cfg.Arrival = spec.Arrival
	cfg.Service = spec.Service
	cfg.SLO = spec.SLO
	cfg.Ramp = spec.Stages()
	cfg.Invariants = true

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

	for _, o := range spec.Outages {
		cfg.ZoneOutages = append(cfg.ZoneOutages, cluster.ZoneOutage{Zone: o.Zone, At: o.At, For: o.For})
	}
	if a := spec.Alert; a != nil {
		cfg.Watch = &watch.Config{Rules: []watch.Rule{*a}}
	}
	if as := spec.Autoscale; as != nil {
		tmpl := cluster.VMSpec{
			Name:      "srv-auto",
			Kind:      cluster.KindServer,
			VCPUs:     spec.ServerVCPUs,
			Pressure:  0.4 * float64(spec.ServerVCPUs),
			Sensitive: true,
		}
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

// ScaleRig parses load-spec text and compiles it with ScaleConfig,
// setting the engine pool width (0 = auto, 1 = serial).
func ScaleRig(text string, seed uint64, shards int) (topology.LoadSpec, cluster.Config, error) {
	spec, err := topology.ParseLoadSpec(text)
	if err != nil {
		return spec, cluster.Config{}, err
	}
	cfg, err := ScaleConfig(spec, seed)
	if err != nil {
		return spec, cfg, err
	}
	cfg.Shards = shards
	return spec, cfg, nil
}

// scaleTable runs the cluster-load rigs and reports tail latency, SLO
// burn, failover traffic, and autoscaler activity per topology.
func scaleTable(h *harness) Table {
	t := Table{
		ID:    "scale",
		Title: "Multi-rack control plane: two-level placement, partitioned router, zone outage + replica autoscaler (load specs via topology.ParseLoadSpec)",
		Columns: []string{"variant", "topo", "served", "p99", "slo-viol", "recov-slo",
			"replicas", "scale", "failover", "alerts", "migr", "viol"},
	}
	seed, shards := h.opt.Seed, h.opt.Shards
	for _, v := range ScaleVariants() {
		row, err := tryJob(h, "scale|"+v.Name, func() ([]string, error) {
			return scaleCell(v, seed, shards)
		})
		if err == nil {
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// scaleCell executes one load spec and renders its row. Pure function
// of its arguments; safe on worker goroutines.
func scaleCell(v ScaleVariant, seed uint64, shards int) ([]string, error) {
	spec, cfg, err := ScaleRig(v.Spec, seed, shards)
	if err != nil {
		return nil, err
	}
	_, res, err := runCluster(cfg)
	if err != nil {
		return nil, err
	}
	start := spec.ServersPerZone * spec.Zones
	recov := "-"
	if len(res.Phases) == 3 {
		recov = fmt.Sprintf("%.2f%%", res.Phases[2].Rate*100)
	}
	return []string{
		v.Name,
		fmt.Sprintf("%dz×%dh", spec.Zones, spec.HostsPerZone),
		fmt.Sprintf("%d/%d", res.Served, res.Generated),
		fmtLatency(res.P99),
		fmt.Sprintf("%d (%.2f%%)", res.SLOViolations, res.SLORate*100),
		recov,
		fmt.Sprintf("%d→%d", start, res.Replicas),
		fmt.Sprintf("+%d/-%d", res.ScaleUps, res.ScaleDowns),
		fmt.Sprintf("%d", res.Failover),
		fmt.Sprintf("%d", res.Alerts),
		fmt.Sprintf("%d", res.Migrations),
		fmt.Sprintf("%d", res.Violations),
	}, nil
}
