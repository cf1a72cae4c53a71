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
	rows := [][]string{}
	for _, lvl := range []int{1, 2, 4} {
		var van, push, pull []float64
		core.Repeat(h.opt.Seed, h.opt.Runs, func(_ int, seed uint64) error {
			van = append(van, pullPointJob(h, core.StrategyVanilla, false, lvl, seed))
			push = append(push, pullPointJob(h, core.StrategyIRS, false, lvl, seed))
			pull = append(pull, pullPointJob(h, core.StrategyIRS, true, lvl, seed))
			return nil
		})
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

// pullPointJob runs one (strategy, pull?, interference, seed) cell of
// ab-pull as a harness job: streamcluster against inter hogs. A failed
// run counts as 0 s.
func pullPointJob(h *harness, strat core.Strategy, irsPull bool, inter int, seed uint64) float64 {
	key := fmt.Sprintf("abpull|%s|%v|%d|%d", strat, irsPull, inter, seed)
	return jobAs(h, key, func() float64 {
		res, err := runRig(hogRig("streamcluster", 0, inter), strat, seed, func(scn *core.Scenario) {
			scn.TuneGuest = func(name string, c *guest.Config) {
				if name == "fg" {
					c.IRSPull = irsPull
				}
			}
		})
		if err != nil {
			return 0
		}
		return res.VM("fg").Runtime.Seconds()
	})
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
	limits := []sim.Time{
		10 * sim.Microsecond, 25 * sim.Microsecond, 50 * sim.Microsecond,
		100 * sim.Microsecond, 1 * sim.Millisecond,
	}
	base := jobAs(h, "absalimit|vanilla", func() salimitOut {
		return salimitPoint(opt, core.StrategyVanilla, 0)
	})
	rows := [][]string{}
	for _, lim := range limits {
		out := jobAs(h, fmt.Sprintf("absalimit|%s", lim), func() salimitOut {
			return salimitPoint(opt, core.StrategyIRS, lim)
		})
		rows = append(rows, []string{
			lim.String(),
			pct(Improvement(base.rt, out.rt)),
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

// salimitPoint averages streamcluster against one hog over the runs,
// with the SA hard limit set to limit when it is non-zero; failed runs
// are skipped.
func salimitPoint(opt Options, strat core.Strategy, limit sim.Time) salimitOut {
	var rts, exp []float64
	core.Repeat(opt.Seed, opt.Runs, func(_ int, seed uint64) error {
		res, err := runRig(hogRig("streamcluster", 0, 1), strat, seed, func(scn *core.Scenario) {
			if limit > 0 {
				scn.TuneHV = func(c *hypervisor.Config) { c.SALimit = limit }
			}
		})
		if err != nil {
			return nil
		}
		rts = append(rts, res.VM("fg").Runtime.Seconds())
		if res.SASent > 0 {
			exp = append(exp, float64(res.SAExpired)/float64(res.SASent))
		}
		return nil
	})
	return salimitOut{rt: obs.Summarize(rts).Mean, expired: obs.Summarize(exp).Mean}
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
		tas := ticketPointJob(h, spec, lvl)
		spec2 := spec
		spec2.TicketLock = true
		fifo := ticketPointJob(h, spec2, lvl)
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
func ticketPointJob(h *harness, spec workload.ParallelSpec, inter int) float64 {
	opt := h.opt
	key := fmt.Sprintf("abticket|%d|%v|%d", spec.Iterations, spec.TicketLock, inter)
	return jobAs(h, key, func() float64 {
		return ticketPoint(opt, spec, inter)
	})
}

// ticketPoint averages the lock-bound spec's runtime against inter
// hogs under vanilla. The lock benchmark is no catalog entry, so fg
// stays a Go VMSpec, placed before the rig's hogs.
func ticketPoint(opt Options, spec workload.ParallelSpec, inter int) float64 {
	rig := "host:pcpus=4"
	if inter > 0 {
		rig += fmt.Sprintf("; vm:name=bg,kind=hog,vcpus=%d", inter)
	}
	fg := core.VMSpec{Name: "fg", VCPUs: 4, Pin: core.SeqPins(0, 4), Attach: func(k *guest.Kernel, seed uint64) *workload.Instance {
		return workload.NewParallel(k, spec, seed)
	}}
	return meanRuntime(opt, rig, core.StrategyVanilla, func(scn *core.Scenario) {
		scn.VMs = append([]core.VMSpec{fg}, scn.VMs...)
	})
}

// ablationSpinBlock sweeps the adaptive pre-sleep spin budget of
// blocking primitives and shows its interaction with PLE.
func ablationSpinBlock(h *harness) Table {
	budgets := []sim.Time{0, 20 * sim.Microsecond, 40 * sim.Microsecond, 120 * sim.Microsecond}
	rows := [][]string{}
	for _, b := range budgets {
		van := spinBlockPointJob(h, core.StrategyVanilla, b)
		ple := spinBlockPointJob(h, core.StrategyPLE, b)
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

// spinBlockPointJob runs one spin-budget cell as a harness job: vips
// against two hogs, averaged over the runs with failed runs skipped.
func spinBlockPointJob(h *harness, strat core.Strategy, budget sim.Time) float64 {
	opt := h.opt
	return jobAs(h, fmt.Sprintf("abspin|%s|%s", strat, budget), func() float64 {
		return meanRuntime(opt, hogRig("vips", 0, 2), strat, func(scn *core.Scenario) {
			scn.TuneGuest = func(name string, c *guest.Config) {
				c.SpinBeforeBlock = budget
			}
		})
	})
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
		rig := hogRig(c.name, c.mode, 2)
		van := strictPointJob(h, rig, core.StrategyVanilla)
		co := strictPointJob(h, rig, core.StrategyStrictCo)
		irs := strictPointJob(h, rig, core.StrategyIRS)
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

// strictPointJob runs one strict-co cell as a harness job.
func strictPointJob(h *harness, rig string, strat core.Strategy) float64 {
	opt := h.opt
	return jobAs(h, "abstrict|"+strat.String()+"|"+rig, func() float64 {
		return meanRuntime(opt, rig, strat, nil)
	})
}

// meanRuntime averages fg's runtime in a rig over the runs; failed runs
// are skipped.
func meanRuntime(opt Options, rig string, strat core.Strategy, tune func(*core.Scenario)) float64 {
	var rts []float64
	core.Repeat(opt.Seed, opt.Runs, func(_ int, seed uint64) error {
		if res, err := runRig(rig, strat, seed, tune); err == nil {
			rts = append(rts, res.VM("fg").Runtime.Seconds())
		}
		return nil
	})
	return obs.Summarize(rts).Mean
}
