package experiments

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Figures 12 and 13: the CPU-stacking study (§5.6). All vCPUs of both
// the foreground VM and the interfering hog VM are unpinned; the
// hypervisor's VM-oblivious vCPU balancer is free to stack sibling
// vCPUs on the same pCPU. For blocking workloads stacking is driven by
// deceptive idleness; spinning workloads stack through placement noise
// with no force separating siblings. Improvement is over vanilla in
// the same unpinned setup.

// stackingPanel builds one strategies-vs-benchmarks panel with 4
// unpinned hogs as interference.
func stackingPanel(h *harness, id, title string, suite []workload.Benchmark, mode workload.SyncMode, inter func(int) interference) Table {
	cols := []string{"benchmark"}
	for _, st := range improvementStrategies {
		cols = append(cols, st.String())
	}
	var rows [][]string
	for _, bench := range suite {
		row := []string{bench.Name}
		for _, st := range improvementStrategies {
			s := setup{bench: bench, mode: mode,
				inter: inter(4), unpinned: true, horizon: 1800 * sim.Second}
			row = append(row, pct(h.improvement(s, st)))
		}
		rows = append(rows, row)
	}
	return Table{ID: id, Title: title, Columns: cols, Rows: rows}
}

// fig12 reproduces Figure 12: NPB performance in response to CPU
// stacking (spinning, unpinned, 4 hogs), plus the two real-application
// interference panels.
func fig12(h *harness) Table {
	lu, _ := workload.ByName("LU")
	ua, _ := workload.ByName("UA")
	panels := []Table{
		stackingPanel(h, "fig12a", "NPB stacking w/ micro-benchmark", workload.NPB(), workload.SyncSpinning, hogs),
		stackingPanel(h, "fig12b", "NPB stacking w/ LU", workload.NPB(), workload.SyncSpinning,
			func(l int) interference { return benchInter(lu, workload.SyncSpinning, l) }),
		stackingPanel(h, "fig12c", "NPB stacking w/ UA", workload.NPB(), workload.SyncSpinning,
			func(l int) interference { return benchInter(ua, workload.SyncSpinning, l) }),
	}
	return mergePanels("fig12", "NPB performance under CPU stacking (unpinned)", panels)
}

// fig13 reproduces Figure 13: PARSEC performance under CPU stacking
// (blocking, deceptive idleness).
func fig13(h *harness) Table {
	stream, _ := workload.ByName("streamcluster")
	fluid, _ := workload.ByName("fluidanimate")
	panels := []Table{
		stackingPanel(h, "fig13a", "PARSEC stacking w/ micro-benchmark", workload.PARSEC(), 0, hogs),
		stackingPanel(h, "fig13b", "PARSEC stacking w/ streamcluster", workload.PARSEC(), 0,
			func(l int) interference { return benchInter(stream, 0, l) }),
		stackingPanel(h, "fig13c", "PARSEC stacking w/ fluidanimate", workload.PARSEC(), 0,
			func(l int) interference { return benchInter(fluid, 0, l) }),
	}
	return mergePanels("fig13", "PARSEC performance under CPU stacking (unpinned)", panels)
}

// saDelayOut carries the SA channel statistics of the one §3.1 run.
type saDelayOut struct {
	sent, acked, expired int64
	mean, max            sim.Time
}

// saDelay reproduces the §3.1/§4.1 micro-measurement: the delay IRS
// adds to each hypervisor preemption (paper: 20-26 µs), plus SA channel
// statistics.
func saDelay(h *harness) Table {
	out, err := saDelayJob(h)
	rows := [][]string{}
	if err == nil {
		rows = append(rows,
			[]string{"SA sent", itoa(out.sent)},
			[]string{"SA acked", itoa(out.acked)},
			[]string{"SA expired (hard limit)", itoa(out.expired)},
			[]string{"mean SA delay", out.mean.String()},
			[]string{"max SA delay", out.max.String()},
		)
	}
	return Table{
		ID:      "sadelay",
		Title:   "Scheduler-activation processing delay (paper: 20-26µs)",
		Columns: []string{"metric", "value"},
		Rows:    rows,
	}
}

// saDelayJob runs the §3.1 rig — streamcluster against two hogs under
// IRS — once as a harness job; claim C12 reads the same run.
func saDelayJob(h *harness) (saDelayOut, error) {
	seed := h.opt.Seed
	return tryJob(h, "sadelay", func() (saDelayOut, error) {
		res, err := runRig(hogRig("streamcluster", 0, 2), core.StrategyIRS, seed, nil)
		if err != nil {
			return saDelayOut{}, err
		}
		return saDelayOut{sent: res.SASent, acked: res.SAAcked, expired: res.SAExpired,
			mean: res.SAMeanDelay, max: res.SAMaxDelay}, nil
	})
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }
