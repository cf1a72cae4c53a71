package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
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
				s := setup{bench: bench, mode: mode,
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

// The two server rigs of §5.3 as host-spec text, %d the hog count: a
// SPECjbb-like warehouse server (one thread per vCPU) and an ab-like
// webserver with many short-request threads (512 in the paper; scaled
// with the smaller service times).
const (
	jbbRig = "host:pcpus=4; vm:name=fg,kind=server,vcpus=4,threads=4,service=3ms,lock-every=25,lock-cs=100us,duration=8s; vm:name=bg,kind=hog,vcpus=%d"
	abRig  = "host:pcpus=4; vm:name=fg,kind=server,vcpus=4,threads=64,service=1500us,duration=8s; vm:name=bg,kind=hog,vcpus=%d"
)

// fig8 reproduces Figure 8: throughput and latency improvement of
// SPECjbb (mean new-order latency) and ab (99th percentile) under IRS
// with 1-4 CPU hogs.
func fig8(h *harness) Table {
	var rows [][]string
	for _, c := range []struct {
		rig  string
		pctl float64 // 0 = mean
		tag  string
	}{
		{jbbRig, 0, "specjbb"},
		{abRig, 99, "ab (99th)"},
	} {
		for inter := 1; inter <= 4; inter++ {
			van := serverPointJob(h, c.rig, core.StrategyVanilla, inter, c.pctl)
			irs := serverPointJob(h, c.rig, core.StrategyIRS, inter, c.pctl)
			rows = append(rows, []string{
				c.tag, fmt.Sprintf("%d-inter", inter),
				pct(ThroughputImprovement(van.thr, irs.thr)),
				pct(Improvement(van.lat, irs.lat)),
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

// serverOut is one server data point: throughput in req/s and latency
// in seconds (mean or percentile).
type serverOut struct {
	thr, lat float64
}

// serverPointJob runs serverPoint as a harness job, one job per (rig,
// strategy, interference, percentile) point.
func serverPointJob(h *harness, rig string, strat core.Strategy, inter int, pctl float64) serverOut {
	opt := h.opt
	key := fmt.Sprintf("server|%s|%s|%d|%.0f", rig, strat, inter, pctl)
	return jobAs(h, key, func() serverOut {
		return serverPoint(opt, fmt.Sprintf(rig, inter), strat, pctl)
	})
}

// serverPoint measures a server rig, averaged over the runs with failed
// runs skipped.
func serverPoint(opt Options, rig string, strat core.Strategy, pctl float64) serverOut {
	var thr, lat []float64
	core.Repeat(opt.Seed, opt.Runs, func(_ int, seed uint64) error {
		res, err := runRig(rig, strat, seed, nil)
		if err != nil {
			return nil
		}
		st := res.VM("fg").Instance.Server
		thr = append(thr, st.Throughput())
		if pctl > 0 {
			lat = append(lat, st.Latency.Percentile(pctl).Seconds())
		} else {
			lat = append(lat, st.Latency.Mean().Seconds())
		}
		return nil
	})
	return serverOut{thr: obs.Summarize(thr).Mean, lat: obs.Summarize(lat).Mean}
}
