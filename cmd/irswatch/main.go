// Command irswatch runs the watchdog rig (a sensitive server ambushed
// by a late-arriving CPU bully) with the online SLO watchdog attached
// and prints the alerts as they fire, each with its noisy-neighbor
// attribution ranking. With -dump it writes the first incident bundle
// to disk: a self-contained JSON forensics file plus a Chrome/Perfetto
// trace of the slowest spans around the alert.
//
// Usage:
//
//	irswatch [-scenario bully|quiet] [-seed 1] [-duration 10s]
//	         [-rules 'page:budget=0.02,fast=500ms,slow=2500ms,burn=3']
//	         [-dump incident] [-expect-top bully]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/watch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irswatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "bully", "rig variant: bully | quiet")
	seed := fs.Uint64("seed", 1, "random seed")
	duration := fs.Duration("duration", time.Duration(experiments.DefaultWatchDuration), "request-stream duration (virtual time)")
	rulesFlag := fs.String("rules", experiments.DefaultWatchRules, "burn-rate alert rules (';'-separated name:budget=F,fast=D,slow=D,burn=F)")
	dump := fs.String("dump", "", "write the first incident bundle to <prefix>.json and <prefix>.trace.json")
	expectTop := fs.String("expect-top", "", "exit nonzero unless this VM is the top-ranked aggressor (CI smoke)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	v, ok := experiments.WatchVariantByName(*scenario)
	if !ok {
		fmt.Fprintf(stderr, "irswatch: unknown scenario %q (valid: bully, quiet)\n", *scenario)
		return 2
	}
	rules, err := watch.ParseRules(*rulesFlag)
	if err != nil {
		fmt.Fprintf(stderr, "irswatch: bad -rules: %v\n", err)
		return 2
	}
	if len(rules) == 0 {
		fmt.Fprintln(stderr, "irswatch: -rules parsed to an empty rule set")
		return 2
	}

	cfg := experiments.WatchConfig(v, *seed, sim.Duration(*duration), rules)
	c, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "irswatch: %v\n", err)
		return 1
	}
	w := c.Watcher()
	w.OnAlert = func(a watch.Alert, ranked []watch.RankedAggressor) {
		fmt.Fprintf(stdout, "ALERT %s\n", a)
		for i, r := range ranked {
			fmt.Fprintf(stdout, "  #%d %s\n", i+1, r)
		}
	}
	res, err := c.Run()
	if err != nil {
		fmt.Fprintf(stderr, "irswatch: %v\n", err)
		return 1
	}

	alerts := w.Alerts()
	incidents := w.Recorder().Incidents()
	fmt.Fprintf(stdout, "\n== %s: served %d/%d, slo-viol %d (%.2f%%), alerts %d, incidents %d ==\n",
		v.Name, res.Served, res.Generated, res.SLOViolations, res.SLORate*100,
		len(alerts), len(incidents))
	if len(alerts) > 0 {
		fmt.Fprintf(stdout, "first alert at %v (%v after the bully window opens)\n",
			time.Duration(alerts[0].At), time.Duration(alerts[0].At-experiments.WatchBullyArrive))
	}
	ranked, _ := w.Rankings()
	for i, r := range ranked {
		fmt.Fprintf(stdout, "aggressor #%d: %s\n", i+1, r)
	}

	if *dump != "" {
		if len(incidents) == 0 {
			fmt.Fprintln(stderr, "irswatch: -dump requested but no incident was captured")
			return 1
		}
		if err := dumpIncident(incidents[0], *dump, stdout); err != nil {
			fmt.Fprintf(stderr, "irswatch: %v\n", err)
			return 1
		}
	}

	if *expectTop != "" {
		if len(alerts) == 0 {
			fmt.Fprintf(stderr, "irswatch: expected an alert naming %q, none fired\n", *expectTop)
			return 1
		}
		if len(ranked) == 0 || ranked[0].Aggressor != *expectTop {
			got := "nothing"
			if len(ranked) > 0 {
				got = ranked[0].Aggressor
			}
			fmt.Fprintf(stderr, "irswatch: top aggressor is %s, expected %q\n", got, *expectTop)
			return 1
		}
	}
	return 0
}

// dumpIncident writes the bundle's JSON and Perfetto halves.
func dumpIncident(inc *watch.Incident, prefix string, stdout io.Writer) error {
	jsonPath := prefix + ".json"
	tracePath := prefix + ".trace.json"
	if err := obs.WriteFile(jsonPath, stdout, inc.WriteJSON); err != nil {
		return err
	}
	if err := obs.WriteFile(tracePath, stdout, inc.WriteTrace); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote incident bundle to %s and %s (open the trace in ui.perfetto.dev)\n",
		jsonPath, tracePath)
	return nil
}
