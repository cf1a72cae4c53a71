package experiments

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fig1a reproduces Figure 1(a): the slowdown of ua (spinning),
// raytrace (user-level work stealing) and fluidanimate (blocking) in a
// 4-vCPU VM with one interfered vCPU, relative to running alone.
func fig1a(h *harness) Table {
	rows := [][]string{}
	cases := []struct {
		name string
		mode workload.SyncMode
	}{
		{"UA", workload.SyncSpinning},
		{"raytrace", 0},
		{"fluidanimate", 0},
	}
	for _, c := range cases {
		bench, ok := workload.ByName(c.name)
		if !ok {
			continue
		}
		alone := h.measure(setup{bench: bench, mode: c.mode,
			strat: hypervisor.StrategyVanilla, inter: hogs(0)})
		inter := h.measure(setup{bench: bench, mode: c.mode,
			strat: hypervisor.StrategyVanilla, inter: hogs(1)})
		slow := 0.0
		if alone.fgRuntime > 0 {
			slow = inter.fgRuntime / alone.fgRuntime
		}
		rows = append(rows, []string{c.name, f2(slow)})
	}
	return Table{
		ID:      "fig1a",
		Title:   "Slowdown with one interfered vCPU (relative to no interference)",
		Columns: []string{"benchmark", "slowdown"},
		Rows:    rows,
	}
}

// fig1b reproduces Figure 1(b): the latency of migrating a process off
// a vCPU that suffers preemptions, as a function of how many
// compute-bound VMs share the source pCPU (paper: 1 ms alone, then
// 26.4/53.2/79.8 ms — one Xen scheduling delay per added VM).
func fig1b(h *harness) Table {
	rows := [][]string{}
	for nVMs := 0; nVMs <= 3; nVMs++ {
		lat := migrationLatencyJob(h, nVMs)
		label := "alone"
		if nVMs > 0 {
			label = fmt.Sprintf("%dVM", nVMs)
		}
		rows = append(rows, []string{label, fmt.Sprintf("%.1fms", lat.Milliseconds())})
	}
	return Table{
		ID:      "fig1b",
		Title:   "Process migration latency from a contended vCPU (mean of 30 probes)",
		Columns: []string{"co-located VMs", "latency"},
		Rows:    rows,
	}
}

// migrationLatencyJob wraps one migrationLatency rig as a harness job
// so Fig 1(b)'s four rigs (and claim C3's three) fan out in parallel.
func migrationLatencyJob(h *harness, nVMs int) sim.Time {
	opt := h.opt
	return jobAs(h, fmt.Sprintf("fig1b|%d", nVMs), func() sim.Time {
		return migrationLatency(opt, nVMs)
	})
}

// migrationLatency builds the Fig 1(b) rig directly: a 2-vCPU VM with a
// busy task on vCPU 0, nVMs hog VMs sharing pCPU 0, and 30 forced
// migrations of the (running) task from vCPU 0 to vCPU 1.
func migrationLatency(opt Options, nVMs int) sim.Time {
	eng := sim.NewEngine()
	hc := hypervisor.DefaultConfig(2)
	hv := hypervisor.New(eng, hc)

	fgVM := hv.NewVM("fg", 2, 256, false)
	fgVM.VCPUs[0].Pin(hv.PCPU(0))
	fgVM.VCPUs[1].Pin(hv.PCPU(1))
	gc := guest.DefaultConfig()
	gc.Seed = opt.Seed
	kern := guest.NewKernel(hv, fgVM, gc)

	for i := 0; i < nVMs; i++ {
		vm := hv.NewVM(fmt.Sprintf("hog%d", i), 1, 256, false)
		vm.VCPUs[0].Pin(hv.PCPU(0))
		k := guest.NewKernel(hv, vm, guest.DefaultConfig())
		workload.NewHog(k, 1).Start()
		k.Start()
	}

	// The probe target: an endless compute task on guest CPU 0, held
	// there by affinity until probed.
	inst := workload.NewHog(kern, 1)
	inst.Start()
	task := kern.Tasks()[0]
	task.Affinity = kern.CPU(0)
	kern.Start()
	res := &obs.Histogram{}
	rng := sim.NewRNG(opt.Seed ^ 0xf191b)
	probes := 0
	var probe, waitPreempted func()
	// The paper measures migration away from "a vCPU with frequent
	// preemptions": each probe fires right after the source vCPU is
	// involuntarily descheduled (when contended), so the latency is the
	// stopper's wait for the vCPU to be scheduled again.
	waitPreempted = func() {
		if probes >= 30 {
			eng.Stop()
			return
		}
		if nVMs == 0 || fgVM.VCPUs[0].State() == hypervisor.StateRunnable {
			probe()
			return
		}
		eng.After(rng.Jitter(500*sim.Microsecond, 0.5), waitPreempted)
	}
	probe = func() {
		probes++
		kern.MigrationLatencyProbe(task, kern.CPU(1), func(lat sim.Time) {
			res.Add(lat)
			// Move it straight back from the uncontended side, then let
			// it run on the contended vCPU long enough for the credit
			// state to re-equilibrate before the next probe.
			eng.After(rng.Jitter(5*sim.Millisecond, 0.4), func() {
				kern.MigrationLatencyProbe(task, kern.CPU(0), func(sim.Time) {
					eng.After(rng.Jitter(300*sim.Millisecond, 0.4), waitPreempted)
				})
			})
		})
	}
	eng.After(500*sim.Millisecond, waitPreempted)
	_ = eng.Run(120 * sim.Second)
	return res.Mean()
}
