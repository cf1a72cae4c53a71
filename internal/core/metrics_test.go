package core_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stackingScenario is the §5.6 rig: streamcluster on 4 unpinned vCPUs
// against 2 unpinned hogs, where relaxed-co swaps stacked siblings.
func stackingScenario(t *testing.T, strat core.Strategy) core.Scenario {
	t.Helper()
	bench, ok := workload.ByName("streamcluster")
	if !ok {
		t.Fatal("streamcluster missing")
	}
	return core.Scenario{
		PCPUs:    4,
		Strategy: strat,
		Seed:     1,
		Unpinned: true,
		VMs:      []core.VMSpec{core.BenchmarkVM("fg", bench, 0, 4, nil), core.HogVM("bg", 2, nil)},
	}
}

func TestExportsMatchNativeAccounting(t *testing.T) {
	// Every hypervisor migration path, relaxed-co's sibling swap
	// included, must reach the exported counter.
	scn := stackingScenario(t, core.StrategyRelaxedCo)
	reg := obs.NewRegistry()
	scn.Metrics = reg
	res := mustRun(t, scn)
	got := obs.CounterValue(reg, "hv_vcpu_migrations_total", obs.Labels{Sub: "hv"})
	if res.VCPUMigrations == 0 || got != res.VCPUMigrations {
		t.Fatalf("hv_vcpu_migrations_total = %d, Result.VCPUMigrations = %d", got, res.VCPUMigrations)
	}
	// The preempt-wait histogram is pushed beside VM.PreemptWait, which
	// the cluster's placement signal reads; the two must agree.
	for _, vr := range res.VMs {
		vm := vr.Kernel.VM()
		h := reg.FindHistogram("hv_preempt_wait_ns", obs.Labels{Sub: "hv", VM: vm.Name})
		if vm.PreemptWait == 0 || h.Sum() != vm.PreemptWait {
			t.Errorf("%s: hv_preempt_wait_ns sum = %d, PreemptWait = %d", vm.Name, h.Sum(), vm.PreemptWait)
		}
	}
}

// stripRun strips a Result of what may differ between otherwise
// identical runs: the fired-event count and the live pointers.
func stripRun(res *core.Result) core.Result {
	out := *res
	out.Events = 0
	out.VMs = append([]core.VMResult(nil), res.VMs...)
	for i := range out.VMs {
		out.VMs[i].Instance, out.VMs[i].Kernel = nil, nil
	}
	return out
}

func TestMetricsDoNotSteer(t *testing.T) {
	// Attaching a registry and its sampler only reads the model: every
	// result but the event count (the sampler's own ticks) must match.
	plan, err := fault.ParsePlan("blackout-every=5ms,blackout-for=1ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []core.Strategy{core.StrategyIRS, core.StrategyRelaxedCo} {
		run := func(metrics bool) core.Result {
			scn := stackingScenario(t, strat)
			scn.VMs[0].IRS = strat == core.StrategyIRS
			scn.Faults = plan
			scn.Invariants = true
			scn.Horizon = 2 * sim.Second
			if metrics {
				scn.Metrics = obs.NewRegistry()
				scn.SampleInterval = 10 * sim.Millisecond
			}
			res, err := core.Run(scn)
			if err != nil && !errors.Is(err, core.ErrUnfinished) {
				t.Fatalf("%v: %v", strat, err)
			}
			return stripRun(res)
		}
		off, on := run(false), run(true)
		if !reflect.DeepEqual(off, on) {
			t.Errorf("%v: attaching metrics changed the run:\noff %+v\non  %+v", strat, off, on)
		}
	}
}
