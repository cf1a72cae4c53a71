package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// obsCounters reports the simulator-measured scheduling-pathology
// counters behind the end-to-end numbers of §5: instead of inferring
// behaviour from runtimes alone, each strategy's row cites what the
// hypervisor and guest actually observed — steal time, the
// preemption-wait distribution (vanilla's 30 ms delays), SA round
// trips, LHP/LWP events, and IRS migrations. The scenario is the §5.1
// single-benchmark setup: streamcluster on 4 pinned vCPUs against one
// CPU hog on pCPU 0.
func obsCounters(h *harness) Table {
	t := Table{
		ID:    "obs",
		Title: "Telemetry counters, streamcluster vs 1 hog (registry-measured)",
		Columns: []string{"strategy", "runtime", "steal fg", "preempt p95",
			"preempts", "SA ack p95", "SA sent/ack/exp", "LHP", "LWP", "guest migr"},
	}
	seed := h.opt.Seed
	for _, strat := range append(core.Strategies(), core.StrategyStrictCo) {
		row, err := tryJob(h, fmt.Sprintf("obs|%s", strat), func() ([]string, error) {
			return obsRow(strat, seed)
		})
		if err == nil {
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// obsRow executes one strategy's instrumented run and renders its row.
// Pure function of its arguments; safe on worker goroutines.
func obsRow(strat core.Strategy, seed uint64) ([]string, error) {
	reg := obs.NewRegistry()
	res, err := runRig(hogRig("streamcluster", 0, 1), strat, seed, func(scn *core.Scenario) { scn.Metrics = reg })
	if err != nil {
		return nil, err
	}
	fgL := obs.Labels{Sub: "hv", VM: "fg"}
	wait := reg.FindHistogram("hv_preempt_wait_ns", fgL)
	ack := reg.FindHistogram("hv_sa_ack_ns", fgL)
	preempts := int64(0)
	for _, v := range res.VM("fg").Kernel.VM().VCPUs {
		preempts += obs.CounterValue(reg, "hv_preemptions_total",
			obs.Labels{Sub: "hv", VM: "fg", CPU: v.Name()})
	}
	return []string{
		strat.String(),
		fmt.Sprintf("%.3fs", res.VM("fg").Runtime.Seconds()),
		fmt.Sprintf("%.3fs", res.VM("fg").StealTime.Seconds()),
		fmt.Sprintf("%.1fms", wait.Percentile(95).Milliseconds()),
		fmt.Sprintf("%d", preempts),
		fmt.Sprintf("%.1fµs", ack.Percentile(95).Microseconds()),
		fmt.Sprintf("%d/%d/%d",
			obs.CounterValue(reg, "hv_sa_sent_total", fgL),
			obs.CounterValue(reg, "hv_sa_acked_total", fgL),
			obs.CounterValue(reg, "hv_sa_expired_total", fgL)),
		fmt.Sprintf("%d", obs.CounterValue(reg, "hv_lhp_total", fgL)),
		fmt.Sprintf("%d", obs.CounterValue(reg, "hv_lwp_total", fgL)),
		fmt.Sprintf("%d", obs.CounterValue(reg, "guest_task_migrations_total",
			obs.Labels{Sub: "guest", VM: "fg"})),
	}, nil
}
