package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Figures 7 and 9: system-wide weighted speedup when a foreground
// benchmark is consolidated with a real background application
// (fluidanimate/streamcluster for PARSEC, LU/UA for NPB). Figure 8:
// server throughput and latency improvement under CPU hogs.

// weightedPanel builds one weighted-speedup panel.
func weightedPanel(h *harness, id, title string, suite []workload.Benchmark, mode workload.SyncMode, bg workload.Benchmark, bgMode workload.SyncMode) Table {
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
				s := setup{pcpus: 4, fgVCPUs: 4, bench: bench, mode: mode,
					inter: benchInter(bg, bgMode, lvl)}
				row = append(row, f2(h.weightedSpeedup(s, st)))
			}
		}
		rows = append(rows, row)
	}
	return Table{ID: id, Title: title, Columns: cols, Rows: rows}
}

// fig7 reproduces Figure 7: weighted speedup of two consolidated
// PARSEC applications (higher is better, 1.0 = vanilla).
func fig7(h *harness) Table {
	fluid, _ := workload.ByName("fluidanimate")
	stream, _ := workload.ByName("streamcluster")
	panels := []Table{
		weightedPanel(h, "fig7a", "Weighted speedup w/ fluidanimate", workload.PARSEC(), 0, fluid, 0),
		weightedPanel(h, "fig7b", "Weighted speedup w/ streamcluster", workload.PARSEC(), 0, stream, 0),
	}
	return mergePanels("fig7", "Weighted speedup of two PARSEC applications (blocking)", panels)
}

// fig9 reproduces Figure 9: weighted speedup for NPB applications.
func fig9(h *harness) Table {
	lu, _ := workload.ByName("LU")
	ua, _ := workload.ByName("UA")
	panels := []Table{
		weightedPanel(h, "fig9a", "Weighted speedup w/ LU", workload.NPB(), workload.SyncSpinning, lu, workload.SyncSpinning),
		weightedPanel(h, "fig9b", "Weighted speedup w/ UA", workload.NPB(), workload.SyncSpinning, ua, workload.SyncSpinning),
	}
	return mergePanels("fig9", "Weighted speedup of NPB applications (spinning)", panels)
}

// serverSpecs returns the two server benchmarks of §5.3: a SPECjbb-like
// warehouse server (one thread per vCPU) and an ab-like webserver with
// many short-request threads.
func serverSpecs() (jbb, ab workload.ServerSpec) {
	jbb = workload.ServerSpec{
		Name:      "specjbb",
		Threads:   4,
		Service:   3 * sim.Millisecond,
		LockEvery: 25,
		LockCS:    100 * sim.Microsecond,
		Duration:  8 * sim.Second,
	}
	ab = workload.ServerSpec{
		Name:     "ab",
		Threads:  64, // 512 in the paper; scaled with the smaller service times
		Service:  1500 * sim.Microsecond,
		Duration: 8 * sim.Second,
	}
	return jbb, ab
}

// fig8 reproduces Figure 8: throughput and latency improvement of
// SPECjbb (mean new-order latency) and ab (99th percentile) under IRS
// with 1-4 CPU hogs.
func fig8(h *harness) Table {
	jbbSpec, abSpec := serverSpecs()
	var rows [][]string
	for _, c := range []struct {
		spec workload.ServerSpec
		pctl float64 // 0 = mean
		tag  string
	}{
		{jbbSpec, 0, "specjbb"},
		{abSpec, 99, "ab (99th)"},
	} {
		for inter := 1; inter <= 4; inter++ {
			vanT, vanL := serverPointJob(h, c.spec, core.StrategyVanilla, inter, c.pctl)
			irsT, irsL := serverPointJob(h, c.spec, core.StrategyIRS, inter, c.pctl)
			rows = append(rows, []string{
				c.tag, fmt.Sprintf("%d-inter", inter),
				pct(ThroughputImprovement(vanT, irsT)),
				pct(Improvement(vanL, irsL)),
			})
		}
	}
	return Table{
		ID:      "fig8",
		Title:   "Server throughput and latency improvement under IRS",
		Columns: []string{"server", "interference", "throughput", "latency"},
		Rows:    rows,
	}
}

// serverOut carries one server data point between workers and assembly.
type serverOut struct {
	thr, lat float64
}

// serverPointJob wraps serverPoint as a harness job, one job per
// (spec, strategy, interference, percentile) point.
func serverPointJob(h *harness, spec workload.ServerSpec, strat core.Strategy, inter int, pctl float64) (float64, float64) {
	opt := h.opt
	key := fmt.Sprintf("server|%s|%s|%d|%.0f", spec.Name, strat, inter, pctl)
	out := jobAs(h, key, func() serverOut {
		thr, lat := serverPoint(opt, spec, strat, inter, pctl)
		return serverOut{thr: thr, lat: lat}
	})
	return out.thr, out.lat
}

// serverPoint measures a server benchmark: returns (throughput req/s,
// latency seconds — mean or percentile).
func serverPoint(opt Options, spec workload.ServerSpec, strat core.Strategy, inter int, pctl float64) (float64, float64) {
	var thr, lat []float64
	for i := 0; i < opt.Runs; i++ {
		vmSpec, statsPtr := core.ServerVM("fg", spec, 4, core.SeqPins(0, 4))
		vmSpec.IRS = strat == core.StrategyIRS
		scn := core.Scenario{
			PCPUs:    4,
			Strategy: strat,
			Seed:     opt.Seed + uint64(i)*7919,
			VMs: []core.VMSpec{
				vmSpec,
				core.HogVM("bg", inter, core.SeqPins(0, inter)),
			},
		}
		if _, err := core.Run(scn); err != nil || *statsPtr == nil {
			continue
		}
		st := *statsPtr
		thr = append(thr, st.Throughput())
		if pctl > 0 {
			lat = append(lat, st.Latency.Percentile(pctl).Seconds())
		} else {
			lat = append(lat, st.Latency.Mean().Seconds())
		}
	}
	return obs.Summarize(thr).Mean, obs.Summarize(lat).Mean
}
