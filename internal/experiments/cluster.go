package experiments

import "fmt"

// clusterTable runs the multi-host consolidation experiment: the same VM
// arrival mix and request stream under each placement/scheduling
// variant. The claim the table supports: interference-aware placement
// plus IRS beats first-fit on tail latency and SLO-violation rate, and
// stays invariant-clean even while live-migrating under chaos.
func clusterTable(h *harness) Table {
	t := Table{
		ID:    "cluster",
		Title: "Multi-host placement: policy×strategy vs cluster tail latency (3 hosts, 4 servers + 4 antagonists)",
		Columns: []string{"variant", "served", "p50", "p99", "p99.9", "slo-viol",
			"migr", "blackouts", "injected", "violations"},
	}
	seed := h.opt.Seed
	for _, v := range TableRigs("cluster") {
		row, err := tryJob(h, "cluster|"+v.Name, func() ([]string, error) {
			return clusterCell(v, seed)
		})
		if err == nil {
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// clusterCell executes one variant and renders its row. Pure function
// of its arguments; safe on worker goroutines.
func clusterCell(v Rig, seed uint64) ([]string, error) {
	_, cfg, err := ScaleRig(v.Spec, seed)
	if err != nil {
		return nil, err
	}
	_, res, err := runCluster(cfg)
	if err != nil {
		return nil, err
	}
	return []string{
		v.Name,
		fmt.Sprintf("%d/%d", res.Served, res.Generated),
		fmtLatency(res.P50),
		fmtLatency(res.P99),
		fmtLatency(res.P999),
		fmt.Sprintf("%d (%.2f%%)", res.SLOViolations, res.SLORate*100),
		fmt.Sprintf("%d", res.Migrations),
		fmt.Sprintf("%d", res.Blackouts),
		fmt.Sprintf("%d", res.FaultsInjected),
		fmt.Sprintf("%d", res.Violations),
	}, nil
}
