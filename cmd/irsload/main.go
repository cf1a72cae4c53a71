// Command irsload drives the multi-rack control plane with a
// declarative cluster-load spec: zones and hosts, arrival ramps or a
// diurnal curve, tenant mix, zone outages, burn-rate alerting, and the
// replica autoscaler. It prints the end-to-end outcome — tail
// latency, SLO burn per phase, failover traffic, scale events — and
// with -expect gates the post-recovery SLO-violation rate for CI.
//
// Usage:
//
//	irsload [-variant 2z8h-outage] [-spec 'topo:zones=2,...'] [-file spec.load]
//	        [-seed 1] [-shards 0] [-lookahead 250us] [-expect 1.0] [-v]
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
	"repro/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	src := cli.AddLoadSpec(fs, "")
	expect := fs.Float64("expect", -1, "fail unless the post-recovery SLO-violation rate is below this percentage")
	verbose := fs.Bool("v", false, "echo the parsed spec before running")
	if err := fs.Parse(args); err != nil {
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
	if *verbose {
		fmt.Fprintf(stdout, "spec: %s\n", spec.String())
	}

	c, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "irsload: %v\n", err)
		return 1
	}
	res, err := c.Run()
	if err != nil {
		fmt.Fprintf(stderr, "irsload: %v\n", err)
		return 1
	}

	report(stdout, name, spec, res)

	if res.Unserved != 0 {
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
	return 0
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
		spec.ServersPerZone*spec.Zones, res.Replicas, res.ScaleUps, res.ScaleDowns, res.Violations)
	if len(res.Phases) == 3 {
		labels := []string{"pre-outage", "outage+settle", "recovered"}
		for i, p := range res.Phases {
			fmt.Fprintf(w, "phase %-13s served %6d  slo-viol %5d (%.2f%%)\n",
				labels[i], p.Served, p.Violations, p.Rate*100)
		}
	}
}
