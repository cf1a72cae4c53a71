package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/obs"
	"repro/internal/sim"
)

// chaosVariant pairs a scheduling strategy with an optional hardening
// profile. The two IRS rows isolate the value of the robustness
// mechanisms: same protocol, with and without its defenses.
type chaosVariant struct {
	name     string
	strategy core.Strategy
	hardened bool
}

func chaosVariants() []chaosVariant {
	return []chaosVariant{
		{"vanilla", core.StrategyVanilla, false},
		{"ple", core.StrategyPLE, false},
		{"relaxed-co", core.StrategyRelaxedCo, false},
		{"irs", core.StrategyIRS, false},
		{"irs-hardened", core.StrategyIRS, true},
	}
}

// chaosRates are the swept fault intensities; 0 is the control row
// proving injection-off runs match the plain experiments.
func chaosRates() []float64 { return []float64{0, 0.10, 0.25} }

// chaosScenario builds one chaos run: the §5.1 streamcluster-vs-hog
// rig under fault.LossPlan(rate), with the invariant checker attached
// and, for the hardened variant, the full defense profile (duplicate
// suppression, migrator retries, wakeup-loss poll, SA circuit
// breaker). The registry is per-run so exports are comparable across
// repeats of the same cell.
func chaosScenario(seed uint64, rate float64, v chaosVariant, reg *obs.Registry) (core.Scenario, error) {
	rig := "host:pcpus=4,horizon=2m; vm:name=fg,kind=bench,bench=streamcluster,vcpus=4; vm:name=bg,kind=hog,vcpus=1"
	if rate > 0 {
		// LossPlan(0) still carries the delay/staleness terms; keep the
		// control row genuinely injection-free.
		rig += "; faults:" + fault.LossPlan(rate).String()
	}
	scn, err := rigScenario(rig, v.strategy, seed)
	scn.Metrics, scn.Invariants = reg, true
	if v.hardened {
		scn.TuneHV = hardenHV
		scn.TuneGuest = func(name string, c *guest.Config) {
			if name == "fg" {
				hardenGuest(c)
			}
		}
	}
	return scn, err
}

// hardenHV and hardenGuest apply the hardened IRS profile shared by the
// chaos and cluster experiments: an SA circuit breaker that trips after
// 5 consecutive expiries and re-probes every 50 ms, duplicate-upcall
// suppression, 3 migrator retries 200 µs apart, and a 5 ms
// wakeup-loss poll.
func hardenHV(c *hypervisor.Config) {
	c.SABreakerN = 5
	c.SABreakerCooldown = 50 * sim.Millisecond
}

func hardenGuest(c *guest.Config) {
	c.HardenDupSA = true
	c.MigratorRetries = 3
	c.MigratorBackoff = 200 * sim.Microsecond
	c.WakePoll = 5 * sim.Millisecond
}

// chaos sweeps vIRQ/hypercall fault rates across the scheduling
// strategies and reports what each run injected, recovered, and — per
// the invariant checker — whether consistency ever broke. The
// robustness claim the table supports: faults cost hardened IRS
// throughput, never correctness, while unhardened runs stall outright
// once wakeup loss strands an idle vCPU ("stalled" rows hit the
// horizon with the benchmark unfinished).
func chaos(h *harness) Table {
	t := Table{
		ID:    "chaos",
		Title: "Chaos sweep: fault.LossPlan rate vs strategy (streamcluster vs 1 hog)",
		Columns: []string{"rate", "variant", "runtime", "SA sent/ack/exp/pend",
			"fallbacks", "recovered", "injected", "violations"},
	}
	seed := h.opt.Seed
	for _, rate := range chaosRates() {
		for _, v := range chaosVariants() {
			row, err := tryJob(h, fmt.Sprintf("chaos|%.2f|%s", rate, v.name), func() ([]string, error) {
				return chaosCell(seed, rate, v)
			})
			if err == nil {
				t.Rows = append(t.Rows, row)
			}
		}
	}
	return t
}

// chaosCell executes one rate×variant run and renders its row; it fails
// only when the run produced no result at all (a stalled run still
// renders). Pure function of its arguments; safe on worker goroutines.
func chaosCell(seed uint64, rate float64, v chaosVariant) ([]string, error) {
	scn, err := chaosScenario(seed, rate, v, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	res, err := core.Run(scn)
	if res == nil {
		return nil, err
	}
	runtime := "stalled"
	if err == nil {
		runtime = fmt.Sprintf("%.3fs", res.VM("fg").Runtime.Seconds())
	}
	k := res.VM("fg").Kernel
	recovered := k.SADupSuppressed + k.MigratorRetried + k.WakePollRecoveries
	return []string{
		fmt.Sprintf("%.0f%%", rate*100),
		v.name,
		runtime,
		fmt.Sprintf("%d/%d/%d/%d", res.SASent, res.SAAcked, res.SAExpired, res.SAPending),
		fmt.Sprintf("%d", res.SAFallbacks),
		fmt.Sprintf("%d", recovered),
		fmt.Sprintf("%d", res.FaultsInjected),
		fmt.Sprintf("%d", res.Violations),
	}, nil
}
