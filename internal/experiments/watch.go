package experiments

import (
	"fmt"

	"repro/internal/span"
)

// The watch experiment exercises the online SLO watchdog end to end: a
// two-host rack runs a sensitive server quietly for four seconds, then
// (in the bully variant) a fat CPU hog lands on the server's host. The
// router's violation stream must trip the burn-rate rule within one
// slow window, and the attribution engine must finger the bully — not
// the small co-resident hog, and never the hog on the other host. The
// quiet variant pins the other half of the contract: no contention, no
// alerts, no incidents.

// watchTable runs the watchdog rig under each variant and reports what the
// watchdog saw: alert count, detection latency after the bully lands,
// and the attribution ranking's top two aggressors.
func watchTable(h *harness) Table {
	t := Table{
		ID:    "watch",
		Title: "Online SLO watchdog: burn-rate alerting + noisy-neighbor attribution (2 hosts, bully lands on the victim's host at 4s)",
		Columns: []string{"variant", "served", "slo-viol", "alerts", "detect",
			"victim", "top aggressor", "score", "runner-up", "ratio", "incidents"},
	}
	seed := h.opt.Seed
	for _, v := range TableRigs("watch") {
		row, err := tryJob(h, "watch|"+v.Name, func() ([]string, error) {
			return watchCell(v, seed)
		})
		if err == nil {
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// watchCell executes one variant with the span tracer attached, as
// the incident bundle needs, and renders its row. Pure function of its
// arguments; safe on worker goroutines.
func watchCell(v Rig, seed uint64) ([]string, error) {
	_, cfg, err := ScaleRig(v.Spec, seed)
	if err != nil {
		return nil, err
	}
	cfg.Spans = span.NewTracer()
	c, res, err := runCluster(cfg)
	if err != nil {
		return nil, err
	}
	w := c.Watcher()
	alerts := w.Alerts()
	detect := "-"
	if len(alerts) > 0 {
		// Detection latency after the late interferer (the last VM) lands.
		detect = fmtLatency(alerts[0].At - cfg.VMs[len(cfg.VMs)-1].ArriveAt)
	}
	victim, top, score, runner, ratio := "-", "-", "-", "-", "-"
	ranked, _ := w.Rankings()
	if len(ranked) > 0 {
		victim = ranked[0].Victim
		top = ranked[0].Aggressor
		score = fmt.Sprintf("%.4f", ranked[0].Score)
		if len(ranked) > 1 {
			runner = ranked[1].Aggressor
			if ranked[1].Score > 0 {
				ratio = fmt.Sprintf("%.1fx", ranked[0].Score/ranked[1].Score)
			}
		}
	}
	return []string{
		v.Name,
		fmt.Sprintf("%d/%d", res.Served, res.Generated),
		fmt.Sprintf("%d (%.2f%%)", res.SLOViolations, res.SLORate*100),
		fmt.Sprintf("%d", len(alerts)),
		detect,
		victim,
		top,
		score,
		runner,
		ratio,
		fmt.Sprintf("%d", len(w.Recorder().Incidents())),
	}, nil
}
