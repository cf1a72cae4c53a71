package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// A Claim is one falsifiable statement from the paper, paired with a
// programmatic check against the simulator. Together the claims form a
// machine-checkable summary of the reproduction: `irsim claims` (or
// TestPaperClaims) evaluates every one and reports which hold.
type Claim struct {
	ID        string
	Section   string // where the paper makes the claim
	Statement string
	// Check runs the experiment; it returns a human-readable
	// measurement and whether the claim held.
	Check func(h *harness) (got string, ok bool)
}

// Claims returns the paper's headline claims in order.
func Claims() []Claim {
	return []Claim{
		{
			ID:        "C1-lhp-slowdown",
			Section:   "§1 Fig 1(a)",
			Statement: "Parallel programs with kernel-level synchronization suffer large slowdowns (2-3.5x) when one vCPU is interfered; spinning (ua) suffers most.",
			Check: func(h *harness) (string, bool) {
				ua := slowdownOf(h, "UA", workload.SyncSpinning)
				fl := slowdownOf(h, "fluidanimate", 0)
				return fmt.Sprintf("UA %.2fx, fluidanimate %.2fx", ua, fl),
					ua >= 2.0 && fl >= 1.5 && ua > fl
			},
		},
		{
			ID:        "C2-worksteal-resilient",
			Section:   "§1 Fig 1(a), §2.3",
			Statement: "User-level work stealing (raytrace) absorbs interference; its slowdown stays near 1x.",
			Check: func(h *harness) (string, bool) {
				rt := slowdownOf(h, "raytrace", 0)
				return fmt.Sprintf("raytrace %.2fx", rt), rt < 1.45
			},
		},
		{
			ID:        "C3-migration-staircase",
			Section:   "§1 Fig 1(b)",
			Statement: "Guest process migration off a contended vCPU takes tens of ms, growing by roughly one scheduling delay per co-located VM.",
			Check: func(h *harness) (string, bool) {
				l1 := migrationLatencyJob(h, 1).Milliseconds()
				l2 := migrationLatencyJob(h, 2).Milliseconds()
				l3 := migrationLatencyJob(h, 3).Milliseconds()
				return fmt.Sprintf("%.1f / %.1f / %.1f ms", l1, l2, l3),
					l1 >= 10 && l2 > l1 && l3 > l2
			},
		},
		{
			ID:        "C4-blocking-underutilizes",
			Section:   "§2.3 Fig 2",
			Statement: "Under interference, blocking workloads use well below their fair CPU share (deceptive idleness); raytrace stays near full share.",
			Check: func(h *harness) (string, bool) {
				scb, _ := workload.ByName("streamcluster")
				rtb, _ := workload.ByName("raytrace")
				sc, _ := fig2Run(h, scb, 0, h.opt.Seed)
				rt, _ := fig2Run(h, rtb, 0, h.opt.Seed)
				return fmt.Sprintf("streamcluster %.2f, raytrace %.2f", sc, rt),
					sc < 0.75 && rt > 0.8
			},
		},
		{
			ID:        "C5-irs-blocking",
			Section:   "§5.2 Fig 5",
			Statement: "IRS improves blocking PARSEC workloads substantially (paper: up to 42%) at 1-2 interfered vCPUs.",
			Check: func(h *harness) (string, bool) {
				best := 0.0
				for _, n := range []string{"streamcluster", "facesim", "bodytrack"} {
					b, _ := workload.ByName(n)
					imp := h.improvement(setup{bench: b, inter: hogs(1)}, core.StrategyIRS)
					if imp > best {
						best = imp
					}
				}
				return fmt.Sprintf("best %.0f%%", best), best >= 30
			},
		},
		{
			ID:        "C6-irs-spinning",
			Section:   "§5.2 Fig 6",
			Statement: "IRS improves spinning NPB workloads substantially (paper: up to 43%): migrated lock holders reschedule at guest (ms) rather than hypervisor (30 ms) granularity.",
			Check: func(h *harness) (string, bool) {
				b, _ := workload.ByName("MG")
				imp := h.improvement(setup{bench: b,
					mode: workload.SyncSpinning, inter: hogs(1)}, core.StrategyIRS)
				return fmt.Sprintf("MG %.0f%%", imp), imp >= 30
			},
		},
		{
			ID:        "C7-gain-diminishes",
			Section:   "§5.2, §5.5 Fig 10",
			Statement: "IRS gains diminish as interference covers more vCPUs; with every vCPU interfered the gain is marginal or negative.",
			Check: func(h *harness) (string, bool) {
				b, _ := workload.ByName("facesim")
				i1 := h.improvement(setup{bench: b, inter: hogs(1)}, core.StrategyIRS)
				i4 := h.improvement(setup{bench: b, inter: hogs(4)}, core.StrategyIRS)
				return fmt.Sprintf("1-inter %.0f%%, 4-inter %.0f%%", i1, i4),
					i1 >= i4+10
			},
		},
		{
			ID:        "C8-pipeline-marginal",
			Section:   "§5.2",
			Statement: "Pipeline-parallel dedup/ferret see only marginal IRS gains: with several ready threads per vCPU the stock balancer already copes.",
			Check: func(h *harness) (string, bool) {
				b, _ := workload.ByName("dedup")
				imp := h.improvement(setup{bench: b, inter: hogs(1)}, core.StrategyIRS)
				return fmt.Sprintf("dedup %.0f%%", imp), imp < 30
			},
		},
		{
			ID:        "C9-relaxedco-spinning",
			Section:   "§5.2 Fig 6",
			Statement: "Relaxed co-scheduling helps coarse-grained spinning workloads but performs poorly for fine-grained ones (CG, IS, MG, SP).",
			Check: func(h *harness) (string, bool) {
				bt, _ := workload.ByName("BT")
				mg, _ := workload.ByName("MG")
				coarse := h.improvement(setup{bench: bt,
					mode: workload.SyncSpinning, inter: hogs(2)}, core.StrategyRelaxedCo)
				fine := h.improvement(setup{bench: mg,
					mode: workload.SyncSpinning, inter: hogs(2)}, core.StrategyRelaxedCo)
				return fmt.Sprintf("BT %.0f%%, MG %.0f%%", coarse, fine),
					coarse >= 20 && fine < coarse-15
			},
		},
		{
			ID:        "C10-relaxedco-blocking",
			Section:   "§5.2 Fig 5",
			Statement: "Relaxed co-scheduling is ineffective or destructive for blocking workloads: idleness is mistaken for progress, blinding the skew monitor.",
			Check: func(h *harness) (string, bool) {
				b, _ := workload.ByName("streamcluster")
				imp := h.improvement(setup{bench: b, inter: hogs(2)}, core.StrategyRelaxedCo)
				return fmt.Sprintf("streamcluster %.0f%%", imp), imp < 10
			},
		},
		{
			ID:        "C11-irs-beats-baselines",
			Section:   "§5.2",
			Statement: "IRS outperforms both PLE and relaxed co-scheduling for fine-grained spinning workloads under interference.",
			Check: func(h *harness) (string, bool) {
				b, _ := workload.ByName("CG")
				s := setup{bench: b, mode: workload.SyncSpinning, inter: hogs(1)}
				irs := h.improvement(s, core.StrategyIRS)
				ple := h.improvement(s, core.StrategyPLE)
				co := h.improvement(s, core.StrategyRelaxedCo)
				return fmt.Sprintf("IRS %.0f%%, PLE %.0f%%, relaxed-co %.0f%%", irs, ple, co),
					irs > ple && irs > co
			},
		},
		{
			ID:        "C12-sa-delay",
			Section:   "§3.1, §4.1",
			Statement: "SA processing adds only 20-26µs to each hypervisor preemption — negligible against ms-scale scheduling quanta.",
			Check: func(h *harness) (string, bool) {
				out, err := saDelayJob(h)
				if err != nil {
					return err.Error(), false
				}
				us := out.mean.Microseconds()
				return fmt.Sprintf("mean %.0fµs", us), us >= 10 && us <= 40
			},
		},
		{
			ID:        "C13-fairness-preserved",
			Section:   "§5.4",
			Statement: "IRS does not compromise fairness: the foreground VM's CPU consumption never exceeds its fair share.",
			Check: func(h *harness) (string, bool) {
				seed := h.opt.Seed
				util, err := tryJob(h, "c13", func() (float64, error) {
					res, err := runRig(hogRig("UA", workload.SyncSpinning, 2), core.StrategyIRS, seed, nil)
					if err != nil {
						return 0, err
					}
					// Fair share: 2 shared pCPUs (1/2 each) + 2 exclusive.
					fair := res.Elapsed + 2*res.Elapsed
					return core.Utilization(res, "fg", fair), nil
				})
				if err != nil {
					return err.Error(), false
				}
				return fmt.Sprintf("utilization %.2f of fair share", util), util <= 1.02
			},
		},
		{
			ID:        "C14-server-latency",
			Section:   "§5.3 Fig 8",
			Statement: "IRS cuts multi-threaded server latency substantially (paper: up to 46%) even though such workloads have little synchronization.",
			Check: func(h *harness) (string, bool) {
				van := serverPointJob(h, jbbRig, core.StrategyVanilla, 2, 0)
				irs := serverPointJob(h, jbbRig, core.StrategyIRS, 2, 0)
				latImp := Improvement(van.lat, irs.lat)
				thrImp := ThroughputImprovement(van.thr, irs.thr)
				return fmt.Sprintf("latency %.0f%%, throughput %.0f%%", latImp, thrImp),
					latImp >= 10 && thrImp >= 5
			},
		},
		{
			ID:        "C15-stacking-penalty",
			Section:   "§2.3, §5.6",
			Statement: "With all vCPUs unpinned, VM-oblivious scheduling stacks sibling vCPUs and costs parallel workloads multiples of their pinned performance.",
			Check: func(h *harness) (string, bool) {
				mg, _ := workload.ByName("MG")
				pinned := h.measure(setup{bench: mg,
					mode: workload.SyncSpinning, strat: core.StrategyVanilla, inter: hogs(4)})
				stacked := h.measure(setup{bench: mg,
					mode: workload.SyncSpinning, strat: core.StrategyVanilla, inter: hogs(4),
					unpinned: true, horizon: 1800 * sim.Second})
				r := stacked.fgRuntime / pinned.fgRuntime
				return fmt.Sprintf("%.1fx over pinned", r), r >= 1.8
			},
		},
		{
			ID:        "C16-irs-stacking",
			Section:   "§5.6 Fig 12/13",
			Statement: "IRS recovers a good part of the stacking penalty: in-guest balancing is resilient to oblivious vCPU placement.",
			Check: func(h *harness) (string, bool) {
				mg, _ := workload.ByName("MG")
				s := setup{bench: mg, mode: workload.SyncSpinning,
					inter: hogs(4), unpinned: true, horizon: 1800 * sim.Second}
				imp := h.improvement(s, core.StrategyIRS)
				return fmt.Sprintf("MG %.0f%%", imp), imp >= 15
			},
		},
		{
			ID:        "C17-ticket-lwp",
			Section:   "§1, [24]",
			Statement: "FIFO ticket locks amplify lock-waiter preemption: handoff to a preempted waiter stalls every other waiter.",
			Check: func(h *harness) (string, bool) {
				spec := workload.ParallelSpec{
					Name: "lockbench", Mode: workload.SyncSpinning,
					Iterations: 400, Work: 1 * sim.Millisecond, Imbalance: 0.1,
					LocksPerIter: 6, CSLen: 150 * sim.Microsecond,
				}
				tas := ticketPointJob(h, spec, 1)
				spec.TicketLock = true
				fifo := ticketPointJob(h, spec, 1)
				r := fifo / tas
				return fmt.Sprintf("ticket/TAS %.2fx", r), r >= 1.5
			},
		},
		{
			ID:        "C18-strictco-fragmentation",
			Section:   "§2.1",
			Statement: "Strict co-scheduling causes CPU fragmentation: it devastates blocking workloads (idle waiters waste reserved pCPUs) while spinning workloads merely break even.",
			Check: func(h *harness) (string, bool) {
				sc, _ := workload.ByName("streamcluster")
				mg, _ := workload.ByName("MG")
				blocking := h.improvement(setup{bench: sc, inter: hogs(2)}, core.StrategyStrictCo)
				spinning := h.improvement(setup{bench: mg,
					mode: workload.SyncSpinning, inter: hogs(2)}, core.StrategyStrictCo)
				return fmt.Sprintf("streamcluster %.0f%%, MG %.0f%%", blocking, spinning),
					blocking < -20 && spinning > blocking+20
			},
		},
	}
}

// slowdownOf computes runtime(1 hog)/runtime(alone) for one benchmark.
//
//nolint:unused // kept adjacent to the claims that use it
func slowdownOf(h *harness, name string, mode workload.SyncMode) float64 {
	b, ok := workload.ByName(name)
	if !ok {
		return 0
	}
	alone := h.measure(setup{bench: b, mode: mode,
		strat: core.StrategyVanilla, inter: hogs(0)})
	inter := h.measure(setup{bench: b, mode: mode,
		strat: core.StrategyVanilla, inter: hogs(1)})
	if alone.fgRuntime == 0 {
		return 0
	}
	return inter.fgRuntime / alone.fgRuntime
}

// evaluateClaims runs every claim and renders the verdict table. Claim
// checks are deterministic builders: the set of simulations they request
// never depends on measured values, so the parallel harness can collect
// the full job matrix up front and fan it out.
func evaluateClaims(h *harness) Table {
	var rows [][]string
	for _, c := range Claims() {
		got, ok := c.Check(h)
		verdict := "HOLDS"
		if !ok {
			verdict = "FAILS"
		}
		rows = append(rows, []string{c.ID, c.Section, verdict, got})
	}
	return Table{
		ID:      "claims",
		Title:   "Paper claims, re-checked on the simulator",
		Columns: []string{"claim", "paper", "verdict", "measured"},
		Rows:    rows,
	}
}
