package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/sim"
)

// The why experiment answers the observability question the other
// tables raise: when the 2z8h outage rig rides through its zone
// failure, *why* did the control plane do what it did? It runs the
// scale experiment's acceptance rig with the decision audit log
// attached and renders the incident's decision trail — cordon, the
// first failover route, each autoscaler action — with the inputs and
// winning margins each choice had at the instant it was made, plus a
// summary row counting every recorded decision. The trail is exact
// and byte-identical at any shard count; cmd/irswhy gates CI on it.

// RunWhy runs a cluster config with the decision log attached
// (recording the given kinds) and returns the finished cluster.
// Shared by the why table and cmd/irswhy.
func RunWhy(cfg cluster.Config, kinds []decision.Kind) (*cluster.Cluster, error) {
	cfg.Decisions = &decision.Options{Kinds: kinds}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := c.Run(); err != nil {
		return nil, err
	}
	return c, nil
}

// whyTable runs the outage rig with the decision log and renders its
// decision trail.
func whyTable(h *harness) Table {
	t := Table{
		ID:      "why",
		Title:   "Decision provenance: the 2z8h outage rig's audit trail (cordon -> failover -> autoscale), from the cluster-wide decision log",
		Columns: []string{"step", "t", "kind", "chooser", "subject", "winner", "margin", "why"},
	}
	seed, shards, la := h.opt.Seed, h.opt.Shards, h.opt.Lookahead
	t.Rows, _ = tryJob(h, "why|2z8h-outage", func() ([][]string, error) {
		return whyCell(seed, shards, la)
	})
	return t
}

// whyCell runs the rig and renders the trail rows plus the Σ summary.
// Pure function of its arguments; safe on worker goroutines.
func whyCell(seed uint64, shards int, lookahead sim.Time) ([][]string, error) {
	_, cfg, err := ScaleRig(ScaleOutageSpec, seed, shards, lookahead)
	if err != nil {
		return nil, err
	}
	c, err := RunWhy(cfg, decision.ControlKinds())
	if err != nil {
		return nil, err
	}
	log := c.Decisions()
	recs := log.Records()
	var rows [][]string
	for _, step := range decision.Trail(recs) {
		r := step.Rec
		margin := "-"
		if m, ok := r.Margin(); ok {
			margin = fmt.Sprintf("%.3f", m)
		}
		rows = append(rows, []string{
			step.Label,
			r.At.String(),
			r.Kind.String(),
			r.Chooser,
			r.Subject,
			r.Winner,
			margin,
			r.Detail,
		})
	}
	rows = append(rows, []string{
		"Σ", "-", "-", "-", "-", "-", "-",
		fmt.Sprintf("%s (dropped %d)", decision.CountsString(recs), log.Dropped()),
	})
	return rows, nil
}
