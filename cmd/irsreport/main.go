// Command irsreport runs an interference scenario with full telemetry
// enabled — the typed metrics registry, the periodic time-series
// sampler, and the scheduling trace — and emits a report: a summary
// table on stdout (per-vCPU steal time, preemption-wait and SA
// ack-latency histograms, LHP/LWP counts, migration counters) plus
// optional machine-readable exports (Prometheus text, CSV time series,
// Chrome trace_viewer JSON for chrome://tracing / Perfetto).
//
// Output is fully deterministic: the same seed produces byte-identical
// summaries and exports.
//
// Usage:
//
//	irsreport [-bench streamcluster] [-strategy vanilla,irs] [-inter 1]
//	          [-seed 1] [-sample 10ms] [-prom out.prom] [-csv out.csv]
//	          [-tracejson out.json] [-at 1s] [-window 100ms]
//	          [-faults drop-sa=0.1,dup-sa=0.05] [-fault-seed 0]
//	          [-parallel] [-workers N]
//
// With -faults, the spec (see fault.ParsePlan) is injected into every
// run, the runtime invariant checker is attached, and the summary
// gains injected-fault and violation counts.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irsreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchName := fs.String("bench", "streamcluster", "benchmark to run")
	stratArg := fs.String("strategy", "vanilla,irs", "comma-separated: vanilla,ple,relaxed-co,irs,strict-co")
	inter := fs.Int("inter", 1, "number of interfering CPU hogs")
	seed := fs.Uint64("seed", 1, "random seed")
	sample := fs.Duration("sample", 10*time.Millisecond, "sampler cadence (virtual time)")
	promPath := fs.String("prom", "", "write Prometheus text export to this file (- for stdout)")
	csvPath := fs.String("csv", "", "write CSV time-series export to this file (- for stdout)")
	traceJSON := fs.String("tracejson", "", "write Chrome trace JSON to this file (- for stdout)")
	at := fs.Duration("at", time.Second, "start of the Chrome trace window (virtual time)")
	window := fs.Duration("window", 100*time.Millisecond, "length of the Chrome trace window")
	faultSpec := fs.String("faults", "", "fault plan, e.g. drop-sa=0.1,dup-sa=0.05 (see fault.ParsePlan; \"none\" disables)")
	faultSeed := fs.Uint64("fault-seed", 0, "fault injector seed (0 derives from -seed)")
	parallel := fs.Bool("parallel", true, "run the per-strategy reports across worker goroutines")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	plan, err := fault.ParsePlan(*faultSpec)
	if err != nil {
		fmt.Fprintf(stderr, "irsreport: -faults: %v\n", err)
		return 2
	}

	bench, ok := workload.ByName(*benchName)
	if !ok {
		fmt.Fprintf(stderr, "irsreport: unknown benchmark %q\n", *benchName)
		return 1
	}
	var strategies []core.Strategy
	for _, name := range strings.Split(*stratArg, ",") {
		s, ok := strategyByName(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(stderr, "irsreport: unknown strategy %q (valid: vanilla, ple, relaxed-co, irs, strict-co)\n", name)
			return 2
		}
		strategies = append(strategies, s)
	}
	if len(strategies) == 0 {
		fmt.Fprintln(stderr, "irsreport: no strategy given")
		return 2
	}

	// Each strategy's run is an isolated simulation: fan them out and
	// buffer the output so stdout/stderr stay in strategy order and the
	// emitted report is byte-identical to a serial run.
	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	if !*parallel {
		nWorkers = 1
	}
	type reportOut struct {
		out, errOut bytes.Buffer
		err         error
	}
	outs := make([]reportOut, len(strategies))
	fns := make([]func(), len(strategies))
	for i, strat := range strategies {
		i, strat := i, strat
		fns[i] = func() {
			outs[i].err = report(&outs[i].out, &outs[i].errOut, bench, *benchName,
				strat, *inter, *seed, sim.Duration(*sample),
				*promPath, *csvPath, *traceJSON,
				sim.Duration(*at), sim.Duration(*window), len(strategies) > 1,
				plan, *faultSeed)
		}
	}
	experiments.ParallelDo(nWorkers, fns)
	for i := range outs {
		io.Copy(stdout, &outs[i].out)
		io.Copy(stderr, &outs[i].errOut)
		if outs[i].err != nil {
			fmt.Fprintf(stderr, "irsreport: %v\n", outs[i].err)
			return 1
		}
	}
	return 0
}

func strategyByName(name string) (core.Strategy, bool) {
	switch name {
	case "vanilla":
		return core.StrategyVanilla, true
	case "ple":
		return core.StrategyPLE, true
	case "relaxed-co":
		return core.StrategyRelaxedCo, true
	case "irs":
		return core.StrategyIRS, true
	case "strict-co":
		return core.StrategyStrictCo, true
	}
	return 0, false
}

// report runs one strategy with telemetry attached and emits its
// summary and exports.
func report(stdout, stderr io.Writer, bench workload.Benchmark, benchName string,
	strat core.Strategy, inter int, seed uint64, sample sim.Time,
	promPath, csvPath, traceJSON string, at, window sim.Time, multi bool,
	plan fault.Plan, faultSeed uint64) error {

	reg := obs.NewRegistry()
	log := trace.NewLog(500000)
	fg := core.BenchmarkVM("fg", bench, 0, 4, core.SeqPins(0, 4))
	fg.IRS = strat == core.StrategyIRS
	vms := []core.VMSpec{fg}
	if inter > 0 {
		vms = append(vms, core.HogVM("bg", inter, core.SeqPins(0, inter)))
	}
	scn := core.Scenario{
		PCPUs:          4,
		Strategy:       strat,
		Seed:           seed,
		VMs:            vms,
		Metrics:        reg,
		SampleInterval: sample,
		Faults:         plan,
		FaultSeed:      faultSeed,
		Invariants:     !plan.Zero(),
		TuneHV:         func(c *hypervisor.Config) { c.Trace = log },
		TuneGuest: func(name string, c *guest.Config) {
			if name == "fg" {
				c.Trace = log
			}
		},
	}
	cluster, err := core.Build(scn)
	if err != nil {
		return err
	}
	res, err := cluster.Run()
	if errors.Is(err, core.ErrUnfinished) {
		// Under fault injection a run may stall; the partial telemetry
		// is exactly what the report is for.
		fmt.Fprintf(stderr, "irsreport: %s: %v (reporting partial run)\n", strat, err)
	} else if err != nil {
		return err
	}
	// One final snapshot so the series include the end-of-run state.
	cluster.Sampler.Sample()

	writeSummary(stdout, reg, cluster.Sampler, res, benchName, strat, inter, seed, plan)

	for _, exp := range []struct {
		path  string
		label string
		write func(io.Writer) error
	}{
		{promPath, "prometheus", func(w io.Writer) error { return obs.WritePrometheus(w, reg) }},
		{csvPath, "csv", func(w io.Writer) error { return obs.WriteCSV(w, cluster.Sampler) }},
		{traceJSON, "chrome-trace", func(w io.Writer) error { return obs.WriteChromeTrace(w, log, at, at+window) }},
	} {
		path := exp.path
		switch {
		case path == "":
			continue
		case path == "-":
			fmt.Fprintf(stdout, "--- %s (%s) ---\n", exp.label, strat)
		case multi:
			path = insertSuffix(path, strat.String())
		}
		if err := obs.WriteFile(path, stdout, exp.write); err != nil {
			return err
		}
		if path != "-" {
			fmt.Fprintf(stderr, "irsreport: wrote %s to %s\n", exp.label, path)
		}
	}
	return nil
}

// insertSuffix turns "out.csv" + "irs" into "out.irs.csv".
func insertSuffix(path, suffix string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + suffix + ext
}

// writeSummary renders the human-readable telemetry digest.
func writeSummary(w io.Writer, reg *obs.Registry, smp *obs.Sampler, res *core.Result,
	benchName string, strat core.Strategy, inter int, seed uint64, plan fault.Plan) {

	fmt.Fprintf(w, "== irsreport: bench=%s inter=%d strategy=%s seed=%d ==\n",
		benchName, inter, strat, seed)
	fgRes := res.VM("fg")
	fmt.Fprintf(w, "runtime            %s (elapsed %s, %d sim events)\n",
		fgRes.Runtime, res.Elapsed, res.Events)

	for _, vr := range res.VMs {
		var parts []string
		for _, v := range vr.Kernel.VM().VCPUs {
			steal := obs.CounterTime(reg, "hv_runstate_ns",
				obs.Labels{Sub: "hv", VM: vr.Name, CPU: v.Name(), Kind: "runnable"})
			parts = append(parts, fmt.Sprintf("%s=%s", v.Name(), steal))
		}
		fmt.Fprintf(w, "steal per vCPU     %s\n", strings.Join(parts, " "))
	}

	fgL := obs.Labels{Sub: "hv", VM: "fg"}
	fmt.Fprintf(w, "preempt wait (fg)  %s\n",
		obs.HistogramLine(reg.FindHistogram("hv_preempt_wait_ns", fgL)))
	fmt.Fprintf(w, "SA ack latency     %s\n",
		obs.HistogramLine(reg.FindHistogram("hv_sa_ack_ns", fgL)))
	fmt.Fprintf(w, "SA sent/ack/exp    %d/%d/%d (pending %d, fallbacks %d)\n",
		obs.CounterValue(reg, "hv_sa_sent_total", fgL),
		obs.CounterValue(reg, "hv_sa_acked_total", fgL),
		obs.CounterValue(reg, "hv_sa_expired_total", fgL),
		res.SAPending, res.SAFallbacks)
	if !plan.Zero() {
		fmt.Fprintf(w, "faults injected    %d (plan %s)\n", res.FaultsInjected, plan)
		fmt.Fprintf(w, "invariants         %d violations\n", res.Violations)
	}
	fmt.Fprintf(w, "LHP/LWP (fg)       %d/%d\n",
		obs.CounterValue(reg, "hv_lhp_total", fgL),
		obs.CounterValue(reg, "hv_lwp_total", fgL))
	fmt.Fprintf(w, "boost wakeups (fg) %d\n",
		obs.CounterValue(reg, "hv_boost_total", fgL))

	gL := obs.Labels{Sub: "guest", VM: "fg"}
	fmt.Fprintf(w, "guest migrations   task=%d wake=%d pull=%d irs=%d irs-pull=%d\n",
		obs.CounterValue(reg, "guest_task_migrations_total", gL),
		obs.CounterValue(reg, "guest_wake_migrations_total", gL),
		obs.CounterValue(reg, "guest_pull_migrations_total", gL),
		obs.CounterValue(reg, "guest_irs_migrations_total", gL),
		obs.CounterValue(reg, "guest_irs_pull_steals_total", gL))
	fmt.Fprintf(w, "migrator latency   %s\n",
		obs.HistogramLine(reg.FindHistogram("guest_migrator_latency_ns", gL)))
	fmt.Fprintf(w, "spin waits (fg)    %d\n",
		obs.CounterValue(reg, "guest_spin_waits_total", gL))

	hvL := obs.Labels{Sub: "hv"}
	var switches []string
	for i := int64(0); ; i++ {
		c := reg.FindCounter("hv_ctx_switches_total", obs.Labels{Sub: "hv", CPU: fmt.Sprintf("p%d", i)})
		if c == nil {
			break
		}
		switches = append(switches, fmt.Sprintf("p%d=%d", i, c.Value()))
	}
	fmt.Fprintf(w, "pCPU ctx switches  %s\n", strings.Join(switches, " "))
	fmt.Fprintf(w, "vCPU migrations    %d (steal attempts=%d moves=%d, PLE yields=%d)\n",
		obs.CounterValue(reg, "hv_vcpu_migrations_total", hvL),
		obs.CounterValue(reg, "hv_steal_attempts_total", hvL),
		obs.CounterValue(reg, "hv_steal_moves_total", hvL),
		obs.CounterValue(reg, "hv_ple_yields_total", hvL))
	fmt.Fprintf(w, "telemetry          %d metrics, %d samples, %d series\n\n",
		reg.Len(), smp.Samples(), len(smp.AllSeries()))
}
