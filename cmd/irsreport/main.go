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
//	irsreport [-spec RIG] [-strategy vanilla,irs] [-seed 1] [-sample 10ms]
//	          [-prom out.prom] [-csv out.csv] [-tracejson out.json]
//	          [-timeline out.txt] [-kinds sa,migrate] [-at 1s] [-window 100ms]
//	          [-fault-seed 0] [-workers N]
//
// -spec is the rig in core.ParseHostSpec syntax; its VM fg must run a
// benchmark, and -strategy sets its strategy. The default rig is
// streamcluster on a 4-vCPU VM against one hog (defaultRig).
//
// With a faults section in the rig, e.g. appending
// "; faults:drop-sa=0.1,dup-sa=0.05" (see fault.ParsePlan), the plan is
// injected into every run, the runtime invariant checker is attached,
// and the summary gains injected-fault and violation counts.
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

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultRig is the §5.1 rig: streamcluster on a 4-vCPU VM pinned one
// vCPU per pCPU against one CPU hog on pCPU 0.
const defaultRig = "host:pcpus=4; vm:name=fg,kind=bench,bench=streamcluster,vcpus=4; vm:name=bg,kind=hog,vcpus=1"

// reportConfig is one invocation's settings, shared by every
// strategy's run.
type reportConfig struct {
	rig                                    core.HostSpec
	seed, faultSeed                        uint64
	sample, at, window                     sim.Time
	promPath, csvPath, traceJSON, timeline string
	kinds                                  map[trace.Kind]bool
	multi                                  bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irsreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	host := cli.AddHost(fs, defaultRig)
	stratArg := fs.String("strategy", "vanilla,irs", "comma-separated: vanilla,ple,relaxed-co,irs,strict-co")
	sample := fs.Duration("sample", 10*time.Millisecond, "sampler cadence (virtual time)")
	promPath := fs.String("prom", "", "write Prometheus text export to this file (- for stdout)")
	csvPath := fs.String("csv", "", "write CSV time-series export to this file (- for stdout)")
	traceJSON := fs.String("tracejson", "", "write Chrome trace JSON of the -at/-window slice to this file (- for stdout)")
	timeline := fs.String("timeline", "", "write the text timeline of the -at/-window slice to this file (- for stdout)")
	kindsArg := fs.String("kinds", "", "-timeline filter, comma-separated: vcpu,switch,sa,task,migrate,note (default all)")
	at := fs.Duration("at", time.Second, "start of the -tracejson/-timeline window (virtual time)")
	window := fs.Duration("window", 100*time.Millisecond, "length of the -tracejson/-timeline window")
	faultSeed := fs.Uint64("fault-seed", 0, "seed of the rig's fault injector (0 derives from -seed)")
	workers := fs.Int("workers", 0, "worker goroutines for the per-strategy runs (0 = GOMAXPROCS, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	kinds, err := trace.ParseKinds(*kindsArg)
	if err != nil {
		fmt.Fprintf(stderr, "irsreport: -kinds: %v\n", err)
		return 2
	}
	rig, err := host.Resolve("bench")
	if err != nil {
		fmt.Fprintf(stderr, "irsreport: %v\n", err)
		return 2
	}
	strategies, err := cli.Strategies(*stratArg, append(core.Strategies(), core.StrategyStrictCo)...)
	if err != nil {
		fmt.Fprintf(stderr, "irsreport: %v\n", err)
		return 2
	}
	cfg := reportConfig{
		rig: rig, seed: *host.Seed, faultSeed: *faultSeed,
		sample: sim.Duration(*sample), at: sim.Duration(*at), window: sim.Duration(*window),
		promPath: *promPath, csvPath: *csvPath, traceJSON: *traceJSON, timeline: *timeline,
		kinds: kinds, multi: len(strategies) > 1,
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
	scn := cfg.rig.WithStrategy(strat).Scenario(cfg.seed)
	scn.Metrics, scn.SampleInterval = reg, cfg.sample
	scn.FaultSeed, scn.Invariants = cfg.faultSeed, !scn.Faults.Zero()
	scn.TuneHV = func(c *hypervisor.Config) { c.Trace = log }
	scn.TuneGuest = func(name string, c *guest.Config) {
		if name == "fg" {
			c.Trace = log
		}
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

	inter := 0
	for _, v := range cfg.rig.VMs {
		if v.Kind == "hog" {
			inter += v.VCPUs
		}
	}
	fmt.Fprintf(w, "== irsreport: bench=%s inter=%d strategy=%s seed=%d ==\n",
		cfg.rig.VM("fg").Bench, inter, strat, cfg.seed)
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
	if plan := cfg.rig.Faults; !plan.Zero() {
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
