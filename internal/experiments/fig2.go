package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// fig2Run measures the fair-share utilization of run i of the Figure 2
// scenario for one benchmark as a harness job. Claim C4 shares run 0
// through the same key.
func fig2Run(h *harness, bench workload.Benchmark, mode workload.SyncMode, i int) (float64, error) {
	seed := h.opt.Seed + uint64(i)*7919
	return tryJob(h, fmt.Sprintf("fig2|%s|%d|%d", bench.Name, mode, i), func() (float64, error) {
		res, err := core.Run(fig2Scenario(bench, mode, seed))
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
		for i := 0; i < h.opt.Runs; i++ {
			if util, err := fig2Run(h, bench, mode, i); err == nil {
				utils = append(utils, util)
			}
		}
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

func fig2Scenario(bench workload.Benchmark, mode workload.SyncMode, seed uint64) core.Scenario {
	fg := core.BenchmarkVM("fg", bench, mode, 4, core.SeqPins(0, 4))
	return core.Scenario{
		PCPUs:    4,
		Strategy: core.StrategyVanilla,
		Seed:     seed,
		VMs: []core.VMSpec{
			fg,
			core.HogVM("bg", 1, core.SeqPins(0, 1)),
		},
	}
}
