// Command irsload runs any cluster rig from its declarative load spec:
// zones and hosts, arrival ramps or a diurnal curve, the tenant mix and
// named VMs, faults, zone outages, burn-rate alerting, and the replica
// autoscaler. It prints the end-to-end outcome — tail latency, SLO
// burn per phase, failover traffic, scale events — and with -expect
// gates the post-recovery SLO-violation rate for CI.
//
// -why attaches the decision audit log and answers "why did the
// scheduler do that?": after the report it prints the incident's
// decision trail, then lets you interrogate the full log with a filter
// query (-q), rank the closest calls (-top: smallest winning margins,
// where the schedule nearly went the other way), and export the
// matched records as JSON or a Perfetto trace that lines up with the
// span tracer's timeline. -trail gates CI on the exact trail. The
// decision flags need -why.
//
// -alerts runs the online SLO watchdog on the spec's alert rule and
// prints each alert as it fires, with its noisy-neighbor attribution
// ranking, then an alert summary and the final ranking. -dump also
// attaches the span tracer and writes the first incident bundle: a
// self-contained JSON forensics file plus a Chrome/Perfetto trace of
// the slowest spans around the alert. -expect-top gates CI on the top
// aggressor. Both need -alerts. An alerts run is judged by the
// watchdog: requests an overloaded victim leaves queued at the end of
// the drain show in the served count but do not fail the run.
//
// Usage:
//
//	irsload [-variant 2z8h-outage] [-spec 'topo:zones=2,...'] [-file spec.load]
//	        [-seed 1] [-expect 1.0] [-v]
//	        [-why ctl] [-q 'kind=place vm=srv0 t>6s'] [-limit 20] [-top 5]
//	        [-trail cordon,failover,scale-up,scale-up,drain,drain]
//	        [-json decisions.json] [-perfetto decisions.trace]
//	        [-alerts] [-dump incident] [-expect-top bully]
//
// Exactly one of -variant, -spec, -file selects the load spec;
// -variant names a built-in rig (irsload -list shows them).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/topology"
	"repro/internal/watch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	src := cli.AddLoadSpec(fs)
	expect := fs.Float64("expect", -1, "fail unless the post-recovery SLO-violation rate is below this percentage")
	verbose := fs.Bool("v", false, "echo the parsed spec before running")
	why := fs.String("why", "", "attach the decision log recording these kinds: ctl, all, or a comma list (e.g. place,route)")
	query := fs.String("q", "", "with -why: print records matching this filter query (e.g. 'kind=place vm=srv0 t>6s')")
	limit := fs.Int("limit", 20, "with -why: cap on printed query records (0 = all)")
	top := fs.Int("top", 0, "with -why: print the N closest calls: scored decisions with the smallest winning margin")
	trail := fs.String("trail", "", "with -why: fail unless the decision trail is exactly this comma-separated step list")
	jsonOut := fs.String("json", "", "with -why: write the matched records as a JSON bundle to this file ('-' = stdout)")
	perfetto := fs.String("perfetto", "", "with -why: write the matched records as a Perfetto/Chrome trace to this file")
	alerts := fs.Bool("alerts", false, "print each alert with its aggressor ranking as it fires, then the alert summary")
	dump := fs.String("dump", "", "with -alerts: write the first incident bundle to <prefix>.json and <prefix>.trace.json")
	expectTop := fs.String("expect-top", "", "with -alerts: fail unless this VM is the top-ranked aggressor")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A flag that qualifies -why or -alerts is bad input without it,
	// even at its default.
	bad := ""
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "q", "limit", "top", "trail", "json", "perfetto":
			if *why == "" {
				bad = "-" + f.Name + " needs -why"
			}
		case "dump", "expect-top":
			if !*alerts {
				bad = "-" + f.Name + " needs -alerts"
			}
		}
	})
	if bad != "" {
		fmt.Fprintf(stderr, "irsload: %s\n", bad)
		return 2
	}

	if *src.List {
		cli.PrintVariants(stdout)
		return 0
	}

	name, spec, cfg, err := src.Resolve()
	if err != nil {
		fmt.Fprintf(stderr, "irsload: %v\n", err)
		return 2
	}
	var q decision.Query
	if *why != "" {
		kinds, err := decision.ParseKinds(*why)
		if err == nil {
			q, err = decision.ParseQuery(*query)
		}
		if err != nil {
			fmt.Fprintf(stderr, "irsload: %v\n", err)
			return 2
		}
		cfg.Decisions = &decision.Options{Kinds: kinds}
	}
	if *alerts {
		if cfg.Watch == nil {
			fmt.Fprintln(stderr, "irsload: -alerts needs a spec with an alert section")
			return 2
		}
		if *dump != "" {
			cfg.Spans = span.NewTracer()
		}
	}
	if *verbose {
		fmt.Fprintf(stdout, "spec: %s\n", spec.String())
	}

	c, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "irsload: %v\n", err)
		return 1
	}
	if *alerts {
		c.Watcher().AddAlertHook(func(a watch.Alert, ranked []watch.RankedAggressor) {
			fmt.Fprintf(stdout, "ALERT %s\n", a)
			for i, r := range ranked {
				fmt.Fprintf(stdout, "  #%d %s\n", i+1, r)
			}
		})
	}
	res, err := c.Run()
	if err != nil {
		fmt.Fprintf(stderr, "irsload: %v\n", err)
		return 1
	}

	report(stdout, name, spec, res)
	var exports []export
	if log := c.Decisions(); log != nil {
		matched := explain(stdout, log, q, *query != "", *limit, *top)
		exports = append(exports,
			export{*jsonOut, func(w io.Writer) error { return decision.WriteJSON(w, matched, log.Dropped()) }},
			export{*perfetto, func(w io.Writer) error { return decision.WriteChromeTrace(w, matched) }})
	}
	var ranked []watch.RankedAggressor
	if *alerts {
		ranked = alertSummary(stdout, c.Watcher())
		if *dump != "" {
			incs := c.Watcher().Recorder().Incidents()
			if len(incs) == 0 {
				fmt.Fprintln(stderr, "irsload: -dump requested but no incident was captured")
				return 1
			}
			exports = append(exports, export{*dump + ".json", incs[0].WriteJSON},
				export{*dump + ".trace.json", incs[0].WriteTrace})
		}
	}
	for _, exp := range exports {
		if exp.path == "" {
			continue
		}
		if err := obs.WriteFile(exp.path, stdout, exp.write); err != nil {
			fmt.Fprintf(stderr, "irsload: %v\n", err)
			return 1
		}
		if exp.path != "-" {
			fmt.Fprintf(stdout, "wrote %s\n", exp.path)
		}
	}

	if res.Unserved != 0 && !*alerts {
		fmt.Fprintf(stderr, "irsload: %d of %d requests unserved\n", res.Unserved, res.Generated)
		return 1
	}
	if res.Violations != 0 {
		fmt.Fprintf(stderr, "irsload: %d invariant violations\n", res.Violations)
		return 1
	}
	if *expect >= 0 {
		if len(res.Phases) != 3 {
			fmt.Fprintln(stderr, "irsload: -expect set but the spec has no outage (no recovery phase to gate)")
			return 1
		}
		rate := res.Phases[2].Rate
		if rate*100 >= *expect {
			fmt.Fprintf(stderr, "irsload: recovery SLO-violation rate %.2f%% is not below the -expect gate %.2f%%\n",
				rate*100, *expect)
			return 1
		}
		fmt.Fprintf(stdout, "expect gate: recovery slo-viol %.2f%% < %.2f%% — ok\n", rate*100, *expect)
	}
	if *trail != "" {
		got := decision.TrailString(decision.Trail(c.Decisions().Records()))
		if got != *trail {
			fmt.Fprintf(stderr, "irsload: decision trail %q does not match -trail %q\n", got, *trail)
			return 1
		}
		fmt.Fprintf(stdout, "expect gate: trail %s — ok\n", got)
	}
	if *expectTop != "" {
		got := "nothing"
		if len(ranked) > 0 {
			got = ranked[0].Aggressor
		}
		if got != *expectTop {
			fmt.Fprintf(stderr, "irsload: top aggressor is %s, expected %q\n", got, *expectTop)
			return 1
		}
		fmt.Fprintf(stdout, "expect gate: top aggressor %s — ok\n", got)
	}
	return 0
}

// export is one output file: its path ("" = not requested, "-" =
// stdout) and its writer.
type export struct {
	path  string
	write func(io.Writer) error
}

// report prints the run outcome: headline latency/SLO numbers, the
// control-plane counters, and the per-phase SLO breakdown when the
// spec injected an outage.
func report(w io.Writer, name string, spec topology.LoadSpec, res *cluster.Result) {
	fmt.Fprintf(w, "== irsload %s: %s ==\n", name, spec.Topology())
	fmt.Fprintf(w, "served   %d/%d  p50 %v  p99 %v  slo-viol %d (%.2f%%)\n",
		res.Served, res.Generated, time.Duration(res.P50), time.Duration(res.P99),
		res.SLOViolations, res.SLORate*100)
	fmt.Fprintf(w, "zones    %d  outages %d  failover %d  alerts %d  migrations %d\n",
		res.Zones, res.ZoneOutages, res.Failover, res.Alerts, res.Migrations)
	fmt.Fprintf(w, "replicas %d→%d  scale +%d/-%d  invariant-violations %d\n",
		spec.Servers(), res.Replicas, res.ScaleUps, res.ScaleDowns, res.Violations)
	if len(res.Phases) == 3 {
		labels := []string{"pre-outage", "outage+settle", "recovered"}
		for i, p := range res.Phases {
			fmt.Fprintf(w, "phase %-13s served %6d  slo-viol %5d (%.2f%%)\n",
				labels[i], p.Served, p.Violations, p.Rate*100)
		}
	}
}

// alertSummary prints the alert section — counts, the first alert's
// time, the final aggressor ranking — and returns that ranking.
func alertSummary(out io.Writer, w *watch.Watcher) []watch.RankedAggressor {
	alerts := w.Alerts()
	fmt.Fprintf(out, "== alerts: %d fired, %d incidents ==\n", len(alerts), len(w.Recorder().Incidents()))
	if len(alerts) > 0 {
		fmt.Fprintf(out, "first alert at %v\n", time.Duration(alerts[0].At))
	}
	ranked, _ := w.Rankings()
	for i, r := range ranked {
		fmt.Fprintf(out, "aggressor #%d: %s\n", i+1, r)
	}
	return ranked
}

// explain prints the decision section: a header counting the log, the
// incident trail, then the records matching q (when queried) and the
// top closest calls among them. It returns the matched records.
func explain(w io.Writer, log *decision.Log, q decision.Query, queried bool, limit, top int) []decision.Record {
	recs := log.Records()
	fmt.Fprintf(w, "== why: %d decisions (%s, dropped %d) ==\n",
		len(recs), decision.CountsString(recs), log.Dropped())
	for _, step := range decision.Trail(recs) {
		fmt.Fprintf(w, "trail %-9s %s\n", step.Label, recLine(&step.Rec))
	}
	matched := recs
	if queried {
		matched = decision.Filter(recs, q)
		fmt.Fprintf(w, "query %q: %d of %d records\n", q.String(), len(matched), len(recs))
		printRecs(w, matched, limit)
	}
	if top > 0 {
		fmt.Fprintf(w, "closest calls (top %d by winning margin):\n", top)
		printRecs(w, decision.ClosestCalls(matched, top), 0)
	}
	return matched
}

// recLine renders one decision record as a single line.
func recLine(r *decision.Record) string {
	margin := ""
	if m, ok := r.Margin(); ok {
		margin = fmt.Sprintf(" margin=%.3f", m)
	}
	return fmt.Sprintf("t=%-9s %-9s %-5s %s -> %s%s  %s",
		r.At, r.Kind, r.Chooser, r.Subject, r.Winner, margin, r.Detail())
}

// printRecs prints up to limit records (0 = all), noting any overflow.
func printRecs(w io.Writer, recs []decision.Record, limit int) {
	n := len(recs)
	if limit > 0 && n > limit {
		n = limit
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "  %s\n", recLine(&recs[i]))
	}
	if n < len(recs) {
		fmt.Fprintf(w, "  … and %d more (raise -limit)\n", len(recs)-n)
	}
}
