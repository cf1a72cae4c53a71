// Command irsreport runs an interference scenario with full telemetry
// enabled — the typed metrics registry, the periodic time-series
// sampler, and the scheduling trace — and emits a report: a summary
// table on stdout (per-vCPU steal time, preemption-wait and SA
// ack-latency histograms, LHP/LWP counts, migration counters) plus
// optional exports: Prometheus text, CSV time series, Chrome
// trace_viewer JSON for chrome://tracing / Perfetto, and the plain-text
// scheduling timeline (vCPU transitions, context switches, scheduler
// activations, guest migrations) of the -at/-window slice, filtered by
// -kinds.
//
// Output is fully deterministic: the same seed produces byte-identical
// summaries and exports.
//
// Usage:
//
//	irsreport [-bench streamcluster] [-strategy vanilla,irs] [-inter 1]
//	          [-seed 1] [-sample 10ms] [-prom out.prom] [-csv out.csv]
//	          [-tracejson out.json] [-timeline out.txt] [-kinds sa,migrate]
//	          [-at 1s] [-window 100ms]
//	          [-faults drop-sa=0.1,dup-sa=0.05] [-fault-seed 0] [-workers N]
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

// reportConfig is one invocation's settings, shared by every
// strategy's run.
type reportConfig struct {
	bench                                  workload.Benchmark
	inter                                  int
	seed, faultSeed                        uint64
	sample, at, window                     sim.Time
	promPath, csvPath, traceJSON, timeline string
	kinds                                  map[trace.Kind]bool
	plan                                   fault.Plan
	multi                                  bool
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
	traceJSON := fs.String("tracejson", "", "write Chrome trace JSON of the -at/-window slice to this file (- for stdout)")
	timeline := fs.String("timeline", "", "write the text timeline of the -at/-window slice to this file (- for stdout)")
	kindsArg := fs.String("kinds", "", "-timeline filter, comma-separated: vcpu,switch,sa,task,migrate,note (default all)")
	at := fs.Duration("at", time.Second, "start of the -tracejson/-timeline window (virtual time)")
	window := fs.Duration("window", 100*time.Millisecond, "length of the -tracejson/-timeline window")
	faultSpec := fs.String("faults", "", "fault plan, e.g. drop-sa=0.1,dup-sa=0.05 (see fault.ParsePlan; \"none\" disables)")
	faultSeed := fs.Uint64("fault-seed", 0, "fault injector seed (0 derives from -seed)")
	workers := fs.Int("workers", 0, "worker goroutines for the per-strategy runs (0 = GOMAXPROCS, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	plan, err := fault.ParsePlan(*faultSpec)
	if err != nil {
		fmt.Fprintf(stderr, "irsreport: -faults: %v\n", err)
		return 2
	}
	kinds, err := trace.ParseKinds(*kindsArg)
	if err != nil {
		fmt.Fprintf(stderr, "irsreport: -kinds: %v\n", err)
		return 2
	}
	bench, ok := workload.ByName(*benchName)
	if !ok {
		fmt.Fprintf(stderr, "irsreport: unknown benchmark %q\n", *benchName)
		return 2
	}
	var strategies []core.Strategy
	for _, name := range strings.Split(*stratArg, ",") {
		s, ok := core.StrategyByName(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(stderr, "irsreport: unknown strategy %q (valid: vanilla, ple, relaxed-co, irs, strict-co)\n", name)
			return 2
		}
		strategies = append(strategies, s)
	}
	cfg := reportConfig{
		bench: bench, inter: *inter, seed: *seed, faultSeed: *faultSeed,
		sample: sim.Duration(*sample), at: sim.Duration(*at), window: sim.Duration(*window),
		promPath: *promPath, csvPath: *csvPath, traceJSON: *traceJSON, timeline: *timeline,
		kinds: kinds, plan: plan, multi: len(strategies) > 1,
	}

	// Each strategy's run is an isolated simulation: fan them out and
	// buffer the output so stdout/stderr stay in strategy order and the
	// emitted report is byte-identical to a serial run.
	type reportOut struct {
		out, errOut bytes.Buffer
		err         error
	}
	outs := make([]reportOut, len(strategies))
	fns := make([]func(), len(strategies))
	for i, strat := range strategies {
		fns[i] = func() { outs[i].err = report(&outs[i].out, &outs[i].errOut, &cfg, strat) }
	}
	experiments.ParallelDo(*workers, fns)
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

// report runs one strategy with telemetry attached and emits its
// summary and exports.
func report(stdout, stderr io.Writer, cfg *reportConfig, strat core.Strategy) error {
	reg := obs.NewRegistry()
	log := trace.NewLog(500000)
	fg := core.BenchmarkVM("fg", cfg.bench, 0, 4, core.SeqPins(0, 4))
	fg.IRS = strat == core.StrategyIRS
	vms := []core.VMSpec{fg}
	if cfg.inter > 0 {
		vms = append(vms, core.HogVM("bg", cfg.inter, core.SeqPins(0, cfg.inter)))
	}
	scn := core.Scenario{
		PCPUs:          4,
		Strategy:       strat,
		Seed:           cfg.seed,
		VMs:            vms,
		Metrics:        reg,
		SampleInterval: cfg.sample,
		Faults:         cfg.plan,
		FaultSeed:      cfg.faultSeed,
		Invariants:     !cfg.plan.Zero(),
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

	writeSummary(stdout, reg, cluster, res, cfg, strat)

	for _, exp := range []struct {
		path  string
		label string
		write func(io.Writer) error
	}{
		{cfg.promPath, "prometheus", func(w io.Writer) error { return obs.WritePrometheus(w, reg) }},
		{cfg.csvPath, "csv", func(w io.Writer) error { return obs.WriteCSV(w, cluster.Sampler) }},
		{cfg.traceJSON, "chrome-trace", func(w io.Writer) error { return obs.WriteChromeTrace(w, log, cfg.at, cfg.at+cfg.window) }},
		{cfg.timeline, "timeline", func(w io.Writer) error { return log.Dump(w, cfg.at, cfg.at+cfg.window, cfg.kinds) }},
	} {
		path := exp.path
		switch {
		case path == "":
			continue
		case path == "-":
			fmt.Fprintf(stdout, "--- %s (%s) ---\n", exp.label, strat)
		case cfg.multi:
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
func writeSummary(w io.Writer, reg *obs.Registry, cluster *core.Cluster, res *core.Result,
	cfg *reportConfig, strat core.Strategy) {

	fmt.Fprintf(w, "== irsreport: bench=%s inter=%d strategy=%s seed=%d ==\n",
		cfg.bench.Name, cfg.inter, strat, cfg.seed)
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
	if !cfg.plan.Zero() {
		fmt.Fprintf(w, "faults injected    %d (plan %s)\n", res.FaultsInjected, cfg.plan)
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
	for _, p := range cluster.HV.PCPUs() {
		n := obs.CounterValue(reg, "hv_ctx_switches_total", obs.Labels{Sub: "hv", CPU: p.Name()})
		switches = append(switches, fmt.Sprintf("%s=%d", p.Name(), n))
	}
	fmt.Fprintf(w, "pCPU ctx switches  %s\n", strings.Join(switches, " "))
	fmt.Fprintf(w, "vCPU migrations    %d (steal attempts=%d moves=%d, PLE yields=%d)\n",
		obs.CounterValue(reg, "hv_vcpu_migrations_total", hvL),
		obs.CounterValue(reg, "hv_steal_attempts_total", hvL),
		obs.CounterValue(reg, "hv_steal_moves_total", hvL),
		obs.CounterValue(reg, "hv_ple_yields_total", hvL))
	fmt.Fprintf(w, "telemetry          %d metrics, %d samples, %d series\n\n",
		reg.Len(), cluster.Sampler.Samples(), len(cluster.Sampler.AllSeries()))
}
