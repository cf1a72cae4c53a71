// Server: latency-sensitive workloads under interference (§5.3).
//
// Runs a SPECjbb-style warehouse server (4 threads, one per vCPU) and
// an ab-style webserver (64 short-request threads) against CPU-hog
// interference, vanilla vs IRS, and reports throughput plus mean and
// tail latency. Multi-threaded servers have little synchronization, so
// the win comes purely from migrating the running thread off preempted
// vCPUs — which mostly shows up in latency.
//
//	go run ./examples/server
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	jbb := workload.ServerSpec{
		Name:      "specjbb",
		Threads:   4,
		Service:   3 * sim.Millisecond,
		LockEvery: 25,
		LockCS:    100 * sim.Microsecond,
		Duration:  6 * sim.Second,
	}
	ab := workload.ServerSpec{
		Name:     "ab",
		Threads:  64,
		Service:  1500 * sim.Microsecond,
		Duration: 6 * sim.Second,
	}

	for _, spec := range []workload.ServerSpec{jbb, ab} {
		fmt.Fprintf(w, "== %s (%d threads, %v mean service) ==\n", spec.Name, spec.Threads, spec.Service)
		for _, inter := range []int{2, 4} {
			for _, strat := range []core.Strategy{core.StrategyVanilla, core.StrategyIRS} {
				vmSpec := core.ServerVM("fg", spec, 4, core.SeqPins(0, 4))
				vmSpec.IRS = strat == core.StrategyIRS
				res, err := core.Run(core.Scenario{
					PCPUs:    4,
					Strategy: strat,
					Seed:     3,
					VMs: []core.VMSpec{
						vmSpec,
						core.HogVM("bg", inter, core.SeqPins(0, inter)),
					},
				})
				if err != nil {
					return fmt.Errorf("%s: %w", spec.Name, err)
				}
				st := res.VM("fg").Instance.Server
				fmt.Fprintf(w, "  %d-inter %-8s throughput=%7.0f req/s  mean=%-9v p99=%v\n",
					inter, strat, st.Throughput(), st.Latency.Mean(), st.Latency.Percentile(99))
			}
		}
	}
	return nil
}
