package workload_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestOpenLoopServerCompletes(t *testing.T) {
	eng, kern := rig(t, 2)
	spec := workload.ServerSpec{
		Name: "open", Threads: 2, Service: 2 * sim.Millisecond,
		Arrival:  2 * sim.Millisecond, // offered load ≈ capacity/2
		Duration: 2 * sim.Second,
	}
	in, stats := workload.NewServer(kern, spec, 1)
	runInstance(t, eng, kern, in, 20*sim.Second)
	if stats.Requests < 500 {
		t.Fatalf("requests = %d, want ~1000", stats.Requests)
	}
	// Offered 500 req/s; served throughput should be close.
	if thr := stats.Throughput(); thr < 400 || thr > 600 {
		t.Fatalf("throughput %.0f, want ~500", thr)
	}
}

func TestOpenLoopLatencyIncludesQueueing(t *testing.T) {
	// At high load (ρ≈0.9), mean latency must exceed the bare service
	// time substantially (M/M/c queueing delay).
	run := func(arrival sim.Time) sim.Time {
		eng, kern := rig(t, 2)
		spec := workload.ServerSpec{
			Name: "q", Threads: 2, Service: 2 * sim.Millisecond,
			Arrival: arrival, Duration: 3 * sim.Second,
		}
		in, stats := workload.NewServer(kern, spec, 1)
		runInstance(t, eng, kern, in, 30*sim.Second)
		return stats.Latency.Mean()
	}
	light := run(10 * sim.Millisecond)   // ρ = 0.1
	heavy := run(1100 * sim.Microsecond) // ρ ≈ 0.9
	if heavy <= light {
		t.Fatalf("heavy-load latency %v <= light-load %v", heavy, light)
	}
	if heavy < 3*sim.Millisecond {
		t.Fatalf("heavy-load latency %v shows no queueing", heavy)
	}
}

func TestOpenLoopTailExplodesUnderInterference(t *testing.T) {
	// The open loop shows the §5.3 effect sharply: a vCPU preemption
	// stalls in-service requests AND queues arrivals behind them, so
	// the p99 under interference is dominated by 30 ms scheduling
	// delays. IRS pulls it back down.
	point := func(strat core.Strategy) sim.Time {
		spec := workload.ServerSpec{
			Name: "tail", Threads: 4, Service: 2 * sim.Millisecond,
			Arrival: 1500 * sim.Microsecond, Duration: 5 * sim.Second,
		}
		vmSpec := core.ServerVM("fg", spec, 4, core.SeqPins(0, 4))
		vmSpec.IRS = strat == core.StrategyIRS
		res, err := core.Run(core.Scenario{
			PCPUs: 4, Strategy: strat, Seed: 5,
			Horizon: 120 * sim.Second,
			VMs: []core.VMSpec{
				vmSpec,
				core.HogVM("bg", 2, core.SeqPins(0, 2)),
			},
		})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		return res.VM("fg").Instance.Server.Latency.Percentile(99)
	}
	van := point(core.StrategyVanilla)
	irs := point(core.StrategyIRS)
	if van < 10*sim.Millisecond {
		t.Fatalf("vanilla p99 %v; interference should push it past a scheduling delay", van)
	}
	if irs >= van {
		t.Fatalf("IRS p99 %v not better than vanilla %v", irs, van)
	}
}
