package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// fig2Run measures the fair-share utilization of the Figure 2 rig (one
// benchmark against one hog, under vanilla) at seed as a harness job.
// Claim C4 shares the first run through the same key.
func fig2Run(h *harness, bench workload.Benchmark, mode workload.SyncMode, seed uint64) (float64, error) {
	return tryJob(h, fmt.Sprintf("fig2|%s|%d|%d", bench.Name, mode, seed), func() (float64, error) {
		res, err := runRig(hogRig(bench.Name, mode, 1), core.StrategyVanilla, seed, nil)
		if err != nil {
			return 0, err
		}
		elapsed := res.Elapsed
		// Fair share: pCPU 0 is shared with the hog (1/2 each);
		// pCPUs 1-3 belong to the parallel VM alone.
		fair := elapsed/2 + 3*elapsed
		return core.Utilization(res, "fg", fair), nil
	})
}

// fig2 reproduces Figure 2: CPU utilization of the parallel VM relative
// to its fair share under one interfering CPU hog, with all benchmarks
// using blocking synchronization (NPB compiled with
// OMP_WAIT_POLICY=passive). Blocking workloads idle their vCPUs on
// LHP/LWP and fall short of the fair share; raytrace's user-level load
// balancing keeps utilization near 1.
func fig2(h *harness) Table {
	rows := [][]string{}

	parsecNames := []string{"streamcluster", "canneal", "fluidanimate", "bodytrack", "x264", "facesim", "blackscholes"}
	npbNames := []string{"BT", "CG", "MG", "FT", "SP", "UA"}

	add := func(name string, mode workload.SyncMode) {
		bench, ok := workload.ByName(name)
		if !ok {
			return
		}
		var utils []float64
		core.Repeat(h.opt.Seed, h.opt.Runs, func(_ int, seed uint64) error {
			if util, err := fig2Run(h, bench, mode, seed); err == nil {
				utils = append(utils, util)
			}
			return nil
		})
		if len(utils) == 0 {
			return
		}
		rows = append(rows, []string{name, f2(obs.Summarize(utils).Mean)})
	}

	for _, n := range parsecNames {
		add(n, 0) // native blocking
	}
	for _, n := range npbNames {
		add(n, workload.SyncBlocking) // OMP passive
	}
	add("raytrace", 0)

	return Table{
		ID:      "fig2",
		Title:   "CPU utilization relative to fair share (blocking sync, 1 hog)",
		Columns: []string{"benchmark", "utilization"},
		Rows:    rows,
	}
}
