package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// Figures 5 and 6: performance improvement over vanilla Xen/Linux for
// the full PARSEC (blocking) and NPB (spinning) suites, under three
// interference sources — the synthetic micro-benchmark and two real
// parallel applications — at 1-, 2- and 4-vCPU interference levels,
// for PLE, relaxed co-scheduling, and IRS.

var improvementStrategies = []core.Strategy{core.StrategyPLE, core.StrategyRelaxedCo, core.StrategyIRS}

var improvementLevels = []int{1, 2, 4}

// improvementPanel builds one panel (one interference source) of a
// Fig 5/6-style matrix.
func improvementPanel(h *harness, id, title string, suite []workload.Benchmark, mode workload.SyncMode, inter func(level int) interference) Table {
	cols := []string{"benchmark"}
	for _, lvl := range improvementLevels {
		for _, st := range improvementStrategies {
			cols = append(cols, fmt.Sprintf("%d-inter %s", lvl, st))
		}
	}
	var rows [][]string
	for _, bench := range suite {
		row := []string{bench.Name}
		for _, lvl := range improvementLevels {
			for _, st := range improvementStrategies {
				s := setup{bench: bench, mode: mode, inter: inter(lvl)}
				row = append(row, pct(h.improvement(s, st)))
			}
		}
		rows = append(rows, row)
	}
	return Table{ID: id, Title: title, Columns: cols, Rows: rows}
}

// fig5 reproduces Figure 5: PARSEC (blocking) improvement under
// (a) CPU hogs, (b) streamcluster, (c) fluidanimate interference.
func fig5(h *harness) Table {
	stream, _ := workload.ByName("streamcluster")
	fluid, _ := workload.ByName("fluidanimate")
	panels := []Table{
		improvementPanel(h, "fig5a", "PARSEC improvement w/ micro-benchmark (blocking)", workload.PARSEC(), 0, hogs),
		improvementPanel(h, "fig5b", "PARSEC improvement w/ streamcluster (blocking)", workload.PARSEC(), 0,
			func(l int) interference { return benchInter(stream, 0, l) }),
		improvementPanel(h, "fig5c", "PARSEC improvement w/ fluidanimate (blocking)", workload.PARSEC(), 0,
			func(l int) interference { return benchInter(fluid, 0, l) }),
	}
	return mergePanels("fig5", "Improvement on PARSEC performance (blocking)", panels)
}

// fig6 reproduces Figure 6: NPB (spinning) improvement under
// (a) CPU hogs, (b) UA, (c) LU interference.
func fig6(h *harness) Table {
	ua, _ := workload.ByName("UA")
	lu, _ := workload.ByName("LU")
	panels := []Table{
		improvementPanel(h, "fig6a", "NPB improvement w/ micro-benchmark (spinning)", workload.NPB(), workload.SyncSpinning, hogs),
		improvementPanel(h, "fig6b", "NPB improvement w/ UA (spinning)", workload.NPB(), workload.SyncSpinning,
			func(l int) interference { return benchInter(ua, workload.SyncSpinning, l) }),
		improvementPanel(h, "fig6c", "NPB improvement w/ LU (spinning)", workload.NPB(), workload.SyncSpinning,
			func(l int) interference { return benchInter(lu, workload.SyncSpinning, l) }),
	}
	return mergePanels("fig6", "Improvement on NPB performance (spinning)", panels)
}

// mergePanels concatenates sub-panels into one table with a panel
// header column.
func mergePanels(id, title string, panels []Table) Table {
	out := Table{ID: id, Title: title}
	if len(panels) == 0 {
		return out
	}
	out.Columns = append([]string{"panel"}, panels[0].Columns...)
	for _, p := range panels {
		for _, r := range p.Rows {
			out.Rows = append(out.Rows, append([]string{p.ID}, r...))
		}
	}
	return out
}
