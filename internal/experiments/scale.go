package experiments

import "fmt"

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

// scaleTable runs the cluster-load rigs and reports tail latency, SLO
// burn, failover traffic, and autoscaler activity per topology.
func scaleTable(h *harness) Table {
	t := Table{
		ID:    "scale",
		Title: "Multi-rack control plane: two-level placement, partitioned router, zone outage + replica autoscaler (load specs via topology.ParseLoadSpec)",
		Columns: []string{"variant", "topo", "served", "p99", "slo-viol", "recov-slo",
			"replicas", "scale", "failover", "alerts", "migr", "viol"},
	}
	seed := h.opt.Seed
	for _, v := range TableRigs("scale") {
		row, err := tryJob(h, "scale|"+v.Name, func() ([]string, error) {
			return scaleCell(v, seed)
		})
		if err == nil {
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// scaleCell executes one load spec and renders its row. Pure function
// of its arguments; safe on worker goroutines.
func scaleCell(v Rig, seed uint64) ([]string, error) {
	spec, cfg, err := ScaleRig(v.Spec, seed)
	if err != nil {
		return nil, err
	}
	_, res, err := runCluster(cfg)
	if err != nil {
		return nil, err
	}
	start := spec.Servers()
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
