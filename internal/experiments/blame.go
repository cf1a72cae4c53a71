package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/span"
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

// BlameRig is the bully rig as a host spec: a 4-vCPU open-loop server
// VM fg (every third request takes a shared lock) pinned across all
// four pCPUs, its request stream lasting duration at mean inter-arrival
// arrival, with two hogs stacked on pCPUs 0-1 so half the server's
// vCPUs are constantly preempted mid-request.
func BlameRig(duration, arrival sim.Time) core.HostSpec {
	spec, err := core.ParseHostSpec(fmt.Sprintf("host:pcpus=4,horizon=2m; "+
		"vm:name=fg,kind=server,vcpus=4,threads=4,service=800us,lock-every=3,lock-cs=150us,duration=%v,arrival=%v; "+
		"vm:name=bg,kind=hog,vcpus=2", duration.Std(), arrival.Std()))
	if err != nil {
		panic(err)
	}
	return spec
}

// BlameRun runs a rig once under strat with span tracing injected into
// the guest of its VM fg, and returns the finished request spans.
func BlameRun(rig core.HostSpec, strat core.Strategy, seed uint64) ([]*span.Span, error) {
	tr := span.NewTracer()
	scn := rig.WithStrategy(strat).Scenario(seed)
	scn.TuneGuest = func(name string, c *guest.Config) {
		if name == "fg" {
			c.Spans = tr
		}
	}
	if _, err := core.Run(scn); err != nil {
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
	rig := BlameRig(DefaultBlameDuration, DefaultBlameArrival)
	err := core.Repeat(seed, runs, func(_ int, seed uint64) error {
		spans, err := BlameRun(rig, strat, seed)
		if err != nil {
			return err
		}
		runWall := obs.NewSketch(obs.DefaultSketchAlpha)
		for _, sp := range spans {
			runWall.Add(sp.Wall())
		}
		wall.Merge(runWall)
		all = append(all, spans...)
		return nil
	})
	if err != nil {
		return nil, err
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
