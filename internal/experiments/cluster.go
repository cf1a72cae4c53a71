package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/hypervisor"
	"repro/internal/sim"
)

// ClusterVariant is one row of the cluster experiment: a placement
// policy paired with the per-host scheduling strategy, optional live
// migration, and optional chaos (control-plane faults + host
// blackouts). Exported so cmd/irsweep can sweep the same variants over
// different rack shapes.
type ClusterVariant struct {
	Name      string
	Policy    cluster.Policy
	Strategy  hypervisor.Strategy
	Migration bool
	Chaos     bool
}

// ClusterVariants lists the comparison rows in table order: the two
// placement baselines, interference-aware placement alone, the full
// stack (interference-aware placement + IRS inside each host), and the
// full stack under chaos.
func ClusterVariants() []ClusterVariant {
	return []ClusterVariant{
		{Name: "first-fit", Policy: cluster.FirstFit, Strategy: hypervisor.StrategyVanilla},
		{Name: "least-loaded", Policy: cluster.LeastLoaded, Strategy: hypervisor.StrategyVanilla},
		{Name: "ia", Policy: cluster.InterferenceAware, Strategy: hypervisor.StrategyVanilla, Migration: true},
		{Name: "ia+irs", Policy: cluster.InterferenceAware, Strategy: hypervisor.StrategyIRS, Migration: true},
		{Name: "ia+irs+chaos", Policy: cluster.InterferenceAware, Strategy: hypervisor.StrategyIRS, Migration: true, Chaos: true},
	}
}

// ClusterConfig materialises the cluster.Config for one variant and
// seed. Every row runs the invariant checker: the "viol" column is the
// correctness half of the table.
func ClusterConfig(v ClusterVariant, seed uint64) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Seed = seed
	cfg.Policy = v.Policy
	cfg.Strategy = v.Strategy
	cfg.Migration = v.Migration
	cfg.Invariants = true
	if v.Chaos {
		cfg.Faults = fault.LossPlan(0.10)
		cfg.HostBlackoutEvery = 6 * sim.Second
		cfg.HostBlackoutFor = 60 * sim.Millisecond
		// Chaos rides on the hardened profile (same defenses as the
		// chaos experiment's irs-hardened row): without wakeup-loss
		// polling, a lost wakeup strands an idle server worker for good.
		cfg.TuneHV = hardenHV
		cfg.TuneGuest = hardenGuest
	}
	return cfg
}

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
	seed, shards := h.opt.Seed, h.opt.Shards
	for _, v := range ClusterVariants() {
		row, err := tryJob(h, "cluster|"+v.Name, func() ([]string, error) {
			return clusterCell(v, seed, shards)
		})
		if err == nil {
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// clusterCell executes one variant and renders its row. Pure function
// of its arguments; safe on worker goroutines.
func clusterCell(v ClusterVariant, seed uint64, shards int) ([]string, error) {
	cfg := ClusterConfig(v, seed)
	cfg.Shards = shards
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
