package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Ablations beyond the paper's figures, probing the design choices
// DESIGN.md calls out:
//
//   - ab-pull:      push-based IRS (the paper) vs the pull-based
//                   mechanism proposed as future work in §6.
//   - ab-salimit:   sensitivity to the SA hard limit (§4.1's
//                   anti-rogue-guest deadline).
//   - ab-ticket:    TAS vs FIFO ticket spinlocks under interference —
//                   how acquisition-order guarantees amplify LWP.
//   - ab-spinblock: the adaptive pre-sleep spin budget vs PLE.

// ablationIRSPull compares IRS with and without the §6 pull mechanism
// on a blocking, barrier-heavy workload.
func ablationIRSPull(h *harness) Table {
	bench, _ := workload.ByName("streamcluster")
	rows := [][]string{}
	for _, lvl := range []int{1, 2, 4} {
		var van, push, pull []float64
		for i := 0; i < h.opt.Runs; i++ {
			seed := h.opt.Seed + uint64(i)*7919
			van = append(van, pullPointJob(h, bench, core.StrategyVanilla, false, lvl, seed))
			push = append(push, pullPointJob(h, bench, core.StrategyIRS, false, lvl, seed))
			pull = append(pull, pullPointJob(h, bench, core.StrategyIRS, true, lvl, seed))
		}
		v := obs.Summarize(van).Mean
		rows = append(rows, []string{
			fmt.Sprintf("%d-inter", lvl),
			pct(Improvement(v, obs.Summarize(push).Mean)),
			pct(Improvement(v, obs.Summarize(pull).Mean)),
		})
	}
	return Table{
		ID:      "ab-pull",
		Title:   "Push-based IRS (paper) vs added pull-based migration (§6), streamcluster",
		Columns: []string{"interference", "IRS push", "IRS push+pull"},
		Rows:    rows,
	}
}

// pullPointJob wraps one pullPoint run as a harness job, one per
// (strategy, pull?, interference, seed) cell.
func pullPointJob(h *harness, bench workload.Benchmark, strat core.Strategy, irsPull bool, inter int, seed uint64) float64 {
	key := fmt.Sprintf("abpull|%s|%v|%d|%d", strat, irsPull, inter, seed)
	return jobAs(h, key, func() float64 {
		return pullPoint(bench, strat, irsPull, inter, seed)
	})
}

func pullPoint(bench workload.Benchmark, strat core.Strategy, irsPull bool, inter int, seed uint64) float64 {
	fg := core.BenchmarkVM("fg", bench, 0, 4, core.SeqPins(0, 4))
	fg.IRS = strat == core.StrategyIRS
	scn := core.Scenario{
		PCPUs:    4,
		Strategy: strat,
		Seed:     seed,
		VMs: []core.VMSpec{
			fg,
			core.HogVM("bg", inter, core.SeqPins(0, inter)),
		},
		TuneGuest: func(name string, c *guest.Config) {
			if name == "fg" {
				c.IRSPull = irsPull
			}
		},
	}
	res, err := core.Run(scn)
	if err != nil {
		return 0
	}
	return res.VM("fg").Runtime.Seconds()
}

// salimitOut is one IRS data point of the SA-limit sweep.
type salimitOut struct {
	rt, expired float64
}

// ablationSALimit sweeps the SA completion hard limit. Too small and
// activations expire before the guest can respond (IRS degrades to
// vanilla); the paper's 20-26µs handling cost suggests anything beyond
// ~50µs suffices.
func ablationSALimit(h *harness) Table {
	opt := h.opt
	bench, _ := workload.ByName("streamcluster")
	limits := []sim.Time{
		10 * sim.Microsecond, 25 * sim.Microsecond, 50 * sim.Microsecond,
		100 * sim.Microsecond, 1 * sim.Millisecond,
	}
	base := jobAs(h, "absalimit|vanilla", func() float64 {
		return salimitPoint(opt, bench) // vanilla baseline
	})
	rows := [][]string{}
	for _, lim := range limits {
		out := jobAs(h, fmt.Sprintf("absalimit|%s", lim), func() salimitOut {
			rt, expired := salimitPointIRS(opt, bench, lim)
			return salimitOut{rt: rt, expired: expired}
		})
		rows = append(rows, []string{
			lim.String(),
			pct(Improvement(base, out.rt)),
			fmt.Sprintf("%.0f%%", out.expired*100),
		})
	}
	return Table{
		ID:      "ab-salimit",
		Title:   "IRS sensitivity to the SA hard limit (streamcluster, 1-inter)",
		Columns: []string{"SA limit", "improvement", "SA expired"},
		Rows:    rows,
	}
}

func salimitPoint(opt Options, bench workload.Benchmark) float64 {
	var rts []float64
	for i := 0; i < opt.Runs; i++ {
		fg := core.BenchmarkVM("fg", bench, 0, 4, core.SeqPins(0, 4))
		res, err := core.Run(core.Scenario{
			PCPUs: 4, Strategy: core.StrategyVanilla, Seed: opt.Seed + uint64(i)*7919,
			VMs: []core.VMSpec{fg, core.HogVM("bg", 1, core.SeqPins(0, 1))},
		})
		if err != nil {
			continue
		}
		rts = append(rts, res.VM("fg").Runtime.Seconds())
	}
	return obs.Summarize(rts).Mean
}

func salimitPointIRS(opt Options, bench workload.Benchmark, limit sim.Time) (float64, float64) {
	var rts, exp []float64
	for i := 0; i < opt.Runs; i++ {
		fg := core.BenchmarkVM("fg", bench, 0, 4, core.SeqPins(0, 4))
		fg.IRS = true
		res, err := core.Run(core.Scenario{
			PCPUs: 4, Strategy: core.StrategyIRS, Seed: opt.Seed + uint64(i)*7919,
			VMs:    []core.VMSpec{fg, core.HogVM("bg", 1, core.SeqPins(0, 1))},
			TuneHV: func(c *hypervisor.Config) { c.SALimit = limit },
		})
		if err != nil {
			continue
		}
		rts = append(rts, res.VM("fg").Runtime.Seconds())
		if res.SASent > 0 {
			exp = append(exp, float64(res.SAExpired)/float64(res.SASent))
		}
	}
	return obs.Summarize(rts).Mean, obs.Summarize(exp).Mean
}

// ablationTicketLock compares TAS and ticket spinlocks for a
// lock-heavy spinning workload under interference: FIFO handoff to a
// preempted waiter stalls the lock for everyone (the LWP pathology the
// preemptable-ticket-spinlock literature attacks [24]).
func ablationTicketLock(h *harness) Table {
	rows := [][]string{}
	// A lock-bound kernel: critical sections cover roughly half the
	// execution, so waiter queues actually form.
	spec := workload.ParallelSpec{
		Name: "lockbench", Mode: workload.SyncSpinning,
		Iterations: 600, Work: 1 * sim.Millisecond, Imbalance: 0.1,
		LocksPerIter: 6, CSLen: 150 * sim.Microsecond,
	}
	for _, lvl := range []int{0, 1, 2} {
		tas := ticketPointJob(h, spec, false, lvl)
		spec2 := spec
		spec2.TicketLock = true
		fifo := ticketPointJob(h, spec2, true, lvl)
		slow := 0.0
		if tas > 0 {
			slow = fifo / tas
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d-inter", lvl),
			fmt.Sprintf("%.2fs", tas),
			fmt.Sprintf("%.2fs", fifo),
			f2(slow),
		})
	}
	return Table{
		ID:      "ab-ticket",
		Title:   "TAS vs FIFO ticket spinlock under interference (vanilla Xen)",
		Columns: []string{"interference", "TAS", "ticket", "ticket/TAS"},
		Rows:    rows,
	}
}

// ticketPointJob wraps one ticketPoint cell as a harness job. The key
// carries the iteration count so ab-ticket's 600-iteration spec and
// claim C17's 400-iteration spec never collide.
func ticketPointJob(h *harness, spec workload.ParallelSpec, ticket bool, inter int) float64 {
	opt := h.opt
	key := fmt.Sprintf("abticket|%d|%v|%d", spec.Iterations, spec.TicketLock, inter)
	return jobAs(h, key, func() float64 {
		return ticketPoint(opt, spec, ticket, inter)
	})
}

func ticketPoint(opt Options, spec workload.ParallelSpec, ticket bool, inter int) float64 {
	var rts []float64
	for i := 0; i < opt.Runs; i++ {
		vms := []core.VMSpec{{
			Name:  "fg",
			VCPUs: 4,
			Pin:   core.SeqPins(0, 4),
			Attach: func(k *guest.Kernel, seed uint64) *workload.Instance {
				return workload.NewParallel(k, spec, seed)
			},
		}}
		if inter > 0 {
			vms = append(vms, core.HogVM("bg", inter, core.SeqPins(0, inter)))
		}
		res, err := core.Run(core.Scenario{
			PCPUs: 4, Strategy: core.StrategyVanilla,
			Seed: opt.Seed + uint64(i)*7919, VMs: vms,
		})
		if err != nil {
			continue
		}
		rts = append(rts, res.VM("fg").Runtime.Seconds())
	}
	return obs.Summarize(rts).Mean
}

// ablationSpinBlock sweeps the adaptive pre-sleep spin budget of
// blocking primitives and shows its interaction with PLE.
func ablationSpinBlock(h *harness) Table {
	bench, _ := workload.ByName("vips")
	budgets := []sim.Time{0, 20 * sim.Microsecond, 40 * sim.Microsecond, 120 * sim.Microsecond}
	rows := [][]string{}
	for _, b := range budgets {
		van := spinBlockPointJob(h, bench, core.StrategyVanilla, b)
		ple := spinBlockPointJob(h, bench, core.StrategyPLE, b)
		rows = append(rows, []string{
			b.String(),
			fmt.Sprintf("%.2fs", van),
			fmt.Sprintf("%.2fs", ple),
			pct(Improvement(van, ple)),
		})
	}
	return Table{
		ID:      "ab-spinblock",
		Title:   "Pre-sleep spin budget vs PLE (vips, 2-inter)",
		Columns: []string{"spin budget", "vanilla", "PLE", "PLE effect"},
		Rows:    rows,
	}
}

// spinBlockPointJob wraps one spin-budget cell as a harness job.
func spinBlockPointJob(h *harness, bench workload.Benchmark, strat core.Strategy, budget sim.Time) float64 {
	opt := h.opt
	return jobAs(h, fmt.Sprintf("abspin|%s|%s", strat, budget), func() float64 {
		return spinBlockPoint(opt, bench, strat, budget)
	})
}

func spinBlockPoint(opt Options, bench workload.Benchmark, strat core.Strategy, budget sim.Time) float64 {
	var rts []float64
	for i := 0; i < opt.Runs; i++ {
		fg := core.BenchmarkVM("fg", bench, 0, 4, core.SeqPins(0, 4))
		res, err := core.Run(core.Scenario{
			PCPUs: 4, Strategy: strat, Seed: opt.Seed + uint64(i)*7919,
			VMs: []core.VMSpec{fg, core.HogVM("bg", 2, core.SeqPins(0, 2))},
			TuneGuest: func(name string, c *guest.Config) {
				c.SpinBeforeBlock = budget
			},
		})
		if err != nil {
			continue
		}
		rts = append(rts, res.VM("fg").Runtime.Seconds())
	}
	return obs.Summarize(rts).Mean
}

// ablationStrictCo contrasts ESX 2.x-style strict co-scheduling (§2.1)
// with vanilla and IRS: gang slots eliminate LHP/LWP entirely, but a
// blocking workload's idle waiters waste their reserved pCPUs (CPU
// fragmentation), and the rigid rotation caps the VM at its slot share.
func ablationStrictCo(h *harness) Table {
	rows := [][]string{}
	for _, c := range []struct {
		name string
		mode workload.SyncMode
	}{
		{"streamcluster", 0},          // blocking: fragmentation-prone
		{"MG", workload.SyncSpinning}, // spinning: slots fully used
		{"EP", workload.SyncBlocking}, // coarse blocking
	} {
		bench, ok := workload.ByName(c.name)
		if !ok {
			continue
		}
		van := strictPointJob(h, bench, c.mode, core.StrategyVanilla)
		co := strictPointJob(h, bench, c.mode, core.StrategyStrictCo)
		irs := strictPointJob(h, bench, c.mode, core.StrategyIRS)
		rows = append(rows, []string{
			c.name,
			fmt.Sprintf("%.2fs", van),
			fmt.Sprintf("%.2fs", co),
			fmt.Sprintf("%.2fs", irs),
			pct(Improvement(van, co)),
			pct(Improvement(van, irs)),
		})
	}
	return Table{
		ID:      "ab-strictco",
		Title:   "Strict co-scheduling (ESX 2.x) vs vanilla and IRS (2-inter)",
		Columns: []string{"benchmark", "vanilla", "strict-co", "IRS", "strict-co vs van", "IRS vs van"},
		Rows:    rows,
	}
}

// strictPointJob wraps one strict-co cell as a harness job.
func strictPointJob(h *harness, bench workload.Benchmark, mode workload.SyncMode, strat core.Strategy) float64 {
	opt := h.opt
	key := fmt.Sprintf("abstrict|%s|%d|%s", bench.Name, mode, strat)
	return jobAs(h, key, func() float64 {
		return strictPoint(opt, bench, mode, strat)
	})
}

func strictPoint(opt Options, bench workload.Benchmark, mode workload.SyncMode, strat core.Strategy) float64 {
	var rts []float64
	for i := 0; i < opt.Runs; i++ {
		fg := core.BenchmarkVM("fg", bench, mode, 4, core.SeqPins(0, 4))
		fg.IRS = strat == core.StrategyIRS
		res, err := core.Run(core.Scenario{
			PCPUs: 4, Strategy: strat, Seed: opt.Seed + uint64(i)*7919,
			VMs: []core.VMSpec{fg, core.HogVM("bg", 2, core.SeqPins(0, 2))},
		})
		if err != nil {
			continue
		}
		rts = append(rts, res.VM("fg").Runtime.Seconds())
	}
	return obs.Summarize(rts).Mean
}
