package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/span"
)

// TestBlameConservation enforces the tracing invariant end-to-end: on
// the real bully rig — preemptions, SA upcalls, IRS task migrations,
// lock spins and sleeps all firing — every finished request span's
// segments must sum to its wall latency within one tick (they are exact
// by construction; the tolerance only documents the acceptance bound).
func TestBlameConservation(t *testing.T) {
	for _, strat := range BlameStrategies() {
		t.Run(strat.String(), func(t *testing.T) {
			spans, err := BlameRun(BlameRig(DefaultBlameDuration/4, DefaultBlameArrival), strat, 1)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(spans) < 100 {
				t.Fatalf("only %d finished spans; the rig is not exercising the tracer", len(spans))
			}
			for _, sp := range spans {
				e := sp.ConservationError()
				if e < 0 {
					e = -e
				}
				if e > 1 {
					t.Fatalf("span #%d: wall %v != segment sum %v (error %v)",
						sp.ID, sp.Wall(), sp.Totals().Sum(), sp.ConservationError())
				}
			}
			an := span.Analyze(spans, obs.DefaultSketchAlpha)
			if an.Violations != 0 {
				t.Fatalf("%d conservation violations", an.Violations)
			}
		})
	}
}

// TestBlameShiftsTailBlame pins the experiment's claim: under the bully
// workload the baseline's p99 cohort is dominated by scheduler
// pathology (vCPU preemption wait + LHP spinning), and IRS hands that
// time back — the p99 cohort's pathology share collapses and its
// service share rises.
func TestBlameShiftsTailBlame(t *testing.T) {
	if testing.Short() {
		t.Skip("full bully runs in -short mode")
	}
	pathology := func(strat core.Strategy) (path, svc float64) {
		spans, err := BlameRun(BlameRig(DefaultBlameDuration, DefaultBlameArrival), strat, 1)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		an := span.Analyze(spans, obs.DefaultSketchAlpha)
		if an.Violations != 0 {
			t.Fatalf("conservation violations: %d", an.Violations)
		}
		b := an.Band("p99")
		if b == nil {
			t.Fatal("no p99 band")
		}
		return b.Share(span.CatPreemptWait) + b.Share(span.CatLHPSpin), b.Share(span.CatService)
	}
	vanPath, vanSvc := pathology(core.StrategyVanilla)
	irsPath, irsSvc := pathology(core.StrategyIRS)
	if vanPath < 0.2 {
		t.Fatalf("vanilla p99 preempt+lhp share = %.3f; the bully is not bullying", vanPath)
	}
	if irsPath >= vanPath/2 {
		t.Fatalf("irs p99 preempt+lhp share %.3f not well below vanilla's %.3f", irsPath, vanPath)
	}
	if irsSvc <= vanSvc {
		t.Fatalf("irs p99 service share %.3f did not rise above vanilla's %.3f", irsSvc, vanSvc)
	}
}

// TestBlameWallSketchMatchesMergedRuns checks the mergeable-quantile
// path the experiment table uses: per-run wall sketches merged together
// must agree exactly with one sketch over the pooled spans.
func TestBlameWallSketchMatchesMergedRuns(t *testing.T) {
	merged := obs.NewSketch(obs.DefaultSketchAlpha)
	pooled := obs.NewSketch(obs.DefaultSketchAlpha)
	core.Repeat(1, 2, func(_ int, seed uint64) error {
		spans, err := BlameRun(BlameRig(DefaultBlameDuration/8, DefaultBlameArrival), core.StrategyVanilla, seed)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		runSketch := obs.NewSketch(obs.DefaultSketchAlpha)
		for _, sp := range spans {
			runSketch.Add(sp.Wall())
			pooled.Add(sp.Wall())
		}
		merged.Merge(runSketch)
		return nil
	})
	for _, p := range []float64{50, 99, 99.9} {
		if merged.Percentile(p) != pooled.Percentile(p) {
			t.Fatalf("p%v: merged %v != pooled %v", p, merged.Percentile(p), pooled.Percentile(p))
		}
	}
}
