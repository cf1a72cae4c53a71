package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// Figure 10: IRS improvement trend with a varying number of interfered
// vCPUs (1-8) on 8-vCPU VMs sharing 8 pCPUs, for four benchmark types
// (x264: mutex, blackscholes: barrier, EP: blocking/little sync,
// MG: spinning) and three interference types.

// fig10Case describes one sub-plot of Figure 10.
type fig10Case struct {
	bench string
	mode  workload.SyncMode
	// inters names the interference sources: always hogs plus two real
	// applications.
	inters []string
	iMode  workload.SyncMode
}

func fig10Cases() []fig10Case {
	return []fig10Case{
		{"x264", 0, []string{"fluidanimate", "streamcluster"}, 0},
		{"blackscholes", 0, []string{"fluidanimate", "streamcluster"}, 0},
		{"EP", workload.SyncBlocking, []string{"LU", "UA"}, workload.SyncSpinning},
		{"MG", workload.SyncSpinning, []string{"LU", "UA"}, workload.SyncSpinning},
	}
}

// fig10 reproduces Figure 10 (IRS only, as plotted in the paper).
func fig10(h *harness) Table {
	cols := []string{"benchmark", "interference"}
	for n := 1; n <= 8; n++ {
		cols = append(cols, fmt.Sprintf("%d", n))
	}
	var rows [][]string
	for _, c := range fig10Cases() {
		bench, ok := workload.ByName(c.bench)
		if !ok {
			continue
		}
		sources := []struct {
			name  string
			inter func(int) interference
		}{
			{"microbench", hogs},
		}
		for _, in := range c.inters {
			ib, ok := workload.ByName(in)
			if !ok {
				continue
			}
			ibCopy, mode := ib, c.iMode
			sources = append(sources, struct {
				name  string
				inter func(int) interference
			}{in, func(l int) interference { return benchInter(ibCopy, mode, l) }})
		}
		for _, src := range sources {
			row := []string{c.bench, src.name}
			for n := 1; n <= 8; n++ {
				s := setup{pcpus: 8, bench: bench, mode: c.mode, inter: src.inter(n)}
				row = append(row, pct(h.improvement(s, core.StrategyIRS)))
			}
			rows = append(rows, row)
		}
	}
	return Table{
		ID:      "fig10",
		Title:   "IRS improvement vs number of interfered vCPUs (8-vCPU VMs)",
		Columns: cols,
		Rows:    rows,
	}
}

// fig11 reproduces Figure 11: IRS improvement with a varying number of
// stacked interfering VMs (1-3) on each interfered pCPU, for a 4-vCPU
// foreground VM at 1-, 2- and 4-vCPU interference levels.
func fig11(h *harness) Table {
	cols := []string{"benchmark", "interference level", "1 VM", "2 VMs", "3 VMs"}
	var rows [][]string
	for _, c := range fig10Cases() {
		bench, ok := workload.ByName(c.bench)
		if !ok {
			continue
		}
		for _, lvl := range []int{1, 2, 4} {
			row := []string{c.bench, fmt.Sprintf("%d-inter", lvl)}
			for vms := 1; vms <= 3; vms++ {
				in := hogs(lvl)
				in.vms = vms
				s := setup{bench: bench, mode: c.mode, inter: in}
				row = append(row, pct(h.improvement(s, core.StrategyIRS)))
			}
			rows = append(rows, row)
		}
	}
	return Table{
		ID:      "fig11",
		Title:   "IRS improvement vs degree of interference (stacked hog VMs)",
		Columns: cols,
		Rows:    rows,
	}
}
