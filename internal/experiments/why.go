package experiments

import (
	"fmt"

	"repro/internal/decision"
)

// The why experiment answers the observability question the other
// tables raise: when the 2z8h outage rig rides through its zone
// failure, *why* did the control plane do what it did? It runs the
// scale experiment's acceptance rig with the decision audit log
// attached and renders the incident's decision trail — cordon, the
// first failover route, each autoscaler action — with the inputs and
// winning margins each choice had at the instant it was made, plus a
// summary row counting every recorded decision. The trail is exact
// and byte-identical on every run; `irsload -why ctl` gates CI on it.

// whyTable runs the outage rig with the decision log and renders its
// decision trail.
func whyTable(h *harness) Table {
	t := Table{
		ID:      "why",
		Title:   "Decision provenance: the 2z8h outage rig's audit trail (cordon -> failover -> autoscale), from the cluster-wide decision log",
		Columns: []string{"step", "t", "kind", "chooser", "subject", "winner", "margin", "why"},
	}
	seed := h.opt.Seed
	t.Rows, _ = tryJob(h, "why|2z8h-outage", func() ([][]string, error) {
		return whyCell(seed)
	})
	return t
}

// whyCell runs the rig and renders the trail rows plus the Σ summary.
// Pure function of its arguments; safe on worker goroutines.
func whyCell(seed uint64) ([][]string, error) {
	_, cfg, err := ScaleRig(ScaleOutageSpec, seed)
	if err != nil {
		return nil, err
	}
	cfg.Decisions = &decision.Options{Kinds: decision.ControlKinds()}
	c, _, err := runCluster(cfg)
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
			r.Detail(),
		})
	}
	rows = append(rows, []string{
		"Σ", "-", "-", "-", "-", "-", "-",
		fmt.Sprintf("%s (dropped %d)", decision.CountsString(recs), log.Dropped()),
	})
	return rows, nil
}
