package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/workload"
)

// The blame experiment answers the question the latency tables cannot:
// not "how slow is the tail" but "whose fault is it". A bully rig — an
// open-loop locking server sharing half its pCPUs with CPU hogs — is
// run under each strategy with causal span tracing on, and the
// per-category critical-path breakdown of the p99 cohort is reported.
// The claim: under vanilla the tail is dominated by preemption wait and
// lock-holder-preemption spinning; IRS shifts the blame back to service
// time, which is the work the tenant actually asked for.

// Default bully-workload knobs, shared with cmd/irsblame.
const (
	DefaultBlameDuration = 2 * sim.Second
	DefaultBlameArrival  = 500 * sim.Microsecond
)

// BlameStrategies lists the blame table's strategy rows in order.
func BlameStrategies() []core.Strategy {
	return []core.Strategy{core.StrategyVanilla, core.StrategyPLE, core.StrategyIRS}
}

// BlameScenario builds the bully rig: a 4-vCPU open-loop server VM
// (every third request takes a shared lock) pinned across all four
// pCPUs, with two hogs stacked on pCPUs 0-1 so half the server's vCPUs
// are constantly preempted mid-request. tracer, when non-nil, is
// injected into the foreground guest so every request carries a span.
func BlameScenario(strat core.Strategy, seed uint64, duration, arrival sim.Time, tracer *span.Tracer) core.Scenario {
	spec := workload.ServerSpec{
		Name:      "srv",
		Threads:   4,
		Service:   800 * sim.Microsecond,
		Arrival:   arrival,
		LockEvery: 3,
		LockCS:    150 * sim.Microsecond,
		Duration:  duration,
	}
	fg, _ := core.ServerVM("fg", spec, 4, core.SeqPins(0, 4))
	fg.IRS = strat == core.StrategyIRS
	return core.Scenario{
		PCPUs:    4,
		Strategy: strat,
		Seed:     seed,
		Horizon:  120 * sim.Second,
		VMs: []core.VMSpec{
			fg,
			core.HogVM("bg", 2, core.SeqPins(0, 2)),
		},
		TuneGuest: func(name string, c *guest.Config) {
			if name == "fg" {
				c.Spans = tracer
			}
		},
	}
}

// BlameRun executes the bully scenario once under strat and returns the
// finished request spans.
func BlameRun(strat core.Strategy, seed uint64, duration, arrival sim.Time) ([]*span.Span, error) {
	tr := span.NewTracer()
	if _, err := core.Run(BlameScenario(strat, seed, duration, arrival, tr)); err != nil {
		return nil, err
	}
	return tr.Finished(), nil
}

// blameTable runs the bully workload under each strategy and reports the
// p99-cohort latency blame breakdown.
func blameTable(h *harness) Table {
	t := Table{
		ID:    "blame",
		Title: "Latency blame attribution under the bully workload (4 pCPUs, 4-vCPU locking server + 2 hogs)",
		Columns: []string{"strategy", "reqs", "p50", "p99", "p99.9",
			"svc%(p99)", "preempt%(p99)", "lhp%(p99)", "top p99 blame", "viol"},
	}
	seed, runs := h.opt.Seed, h.opt.Runs
	for _, strat := range BlameStrategies() {
		row, err := tryJob(h, "blame|"+strat.String(), func() ([]string, error) {
			return blameCell(strat, seed, runs)
		})
		if err == nil {
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// blameCell runs one strategy `runs` times, merges the per-run wall
// sketches (the mergeable-quantile path a scrape pipeline would use),
// and analyzes the pooled spans. Pure function of its arguments; safe
// on worker goroutines.
func blameCell(strat core.Strategy, seed uint64, runs int) ([]string, error) {
	var all []*span.Span
	wall := obs.NewSketch(obs.DefaultSketchAlpha)
	for i := 0; i < runs; i++ {
		spans, err := BlameRun(strat, seed+uint64(i)*7919, DefaultBlameDuration, DefaultBlameArrival)
		if err != nil {
			return nil, err
		}
		runWall := obs.NewSketch(obs.DefaultSketchAlpha)
		for _, sp := range spans {
			runWall.Add(sp.Wall())
		}
		wall.Merge(runWall)
		all = append(all, spans...)
	}
	an := span.Analyze(all, obs.DefaultSketchAlpha)
	p99 := an.Band("p99")
	if p99 == nil {
		return nil, errors.New("no finished requests")
	}
	top := "-"
	if len(p99.Shares) > 0 {
		s := p99.Shares[0]
		top = fmt.Sprintf("%s %.1f%%", s.Cat, s.Share*100)
	}
	return []string{
		strat.String(),
		fmt.Sprintf("%d", an.Requests),
		fmtLatency(wall.Percentile(50)),
		fmtLatency(wall.Percentile(99)),
		fmtLatency(wall.Percentile(99.9)),
		fmtShare(p99.Share(span.CatService)),
		fmtShare(p99.Share(span.CatPreemptWait)),
		fmtShare(p99.Share(span.CatLHPSpin)),
		top,
		fmt.Sprintf("%d", an.Violations),
	}, nil
}

// fmtShare renders a [0,1] fraction as a percentage.
func fmtShare(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
