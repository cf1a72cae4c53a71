// Command irsim regenerates the paper's tables and figures on the
// simulator.
//
// Usage:
//
//	irsim [-runs N] [-seed S] [-workers N] [-v] list
//	irsim [-runs N] [-seed S] [-v] all
//	irsim [-runs N] [-seed S] [-v] fig5 fig6 ...
//	irsim [-cpuprofile cpu.pprof] [-memprofile mem.pprof] all
//	irsim -attack "tick-evade;boost-game,run=2ms" [-expect-overshoot 1.05] [-seed S]
//
// Tables go to stdout and are byte-identical for a given seed at any
// -workers setting (wall times and progress go to stderr), so output
// can be diffed across runs and against the golden corpus.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runs := fs.Int("runs", 3, "simulated runs per data point (paper: 5)")
	seed := fs.Uint64("seed", 1, "base random seed")
	verbose := fs.Bool("v", false, "log each measurement")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	attack := fs.String("attack", "", "';'-separated attacker specs (e.g. tick-evade,margin=500us); runs each against every accounting defense")
	expectOvershoot := fs.Float64("expect-overshoot", 0,
		"with -attack: exit nonzero unless every spec's fully-defended row keeps the attacker at or below this fair-share ratio")
	prof := cli.AddProfile(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ids := fs.Args()
	if *attack != "" && len(ids) > 0 {
		fmt.Fprintln(stderr, "irsim: -attack does not combine with experiment ids")
		return 2
	}
	if *attack == "" && len(ids) == 0 {
		fmt.Fprintln(stderr, "usage: irsim [flags] list | all | <experiment-id>...")
		fs.PrintDefaults()
		return 2
	}

	stop, err := prof.Start(stderr)
	if err != nil {
		fmt.Fprintf(stderr, "irsim: %v\n", err)
		return 1
	}
	defer stop()
	if *attack != "" {
		return attackGate(*attack, *expectOvershoot, *seed, *workers, stdout, stderr)
	}

	opt := experiments.Options{
		Runs: *runs, Seed: *seed, Workers: *workers,
	}
	if *verbose {
		opt.Logf = func(format string, a ...any) {
			fmt.Fprintf(stderr, format+"\n", a...)
		}
	}

	if len(ids) == 1 {
		switch strings.ToLower(ids[0]) {
		case "list":
			for _, id := range experiments.IDs() {
				fmt.Fprintln(stdout, id)
			}
			return 0
		case "all":
			ids = experiments.IDs()
		}
	}

	bad := 0
	for _, id := range ids {
		start := time.Now()
		tb, ok := experiments.ByID(id, opt)
		if !ok {
			fmt.Fprintf(stderr, "irsim: unknown experiment %q (try: irsim list)\n", id)
			bad++
			continue
		}
		fmt.Fprint(stdout, tb)
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "irsim: %s took %.1fs wall\n", id, time.Since(start).Seconds())
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// attackGate runs each ';'-separated attacker spec against every
// accounting defense across the worker pool and prints one table: a
// row per (spec, defense) cell, in spec then defense order. With a
// positive expect threshold it doubles as the CI smoke gate: every
// spec's fully-defended ("both") row must keep the attacker's
// obtained/fair ratio at or below the threshold.
func attackGate(list string, expect float64, seed uint64, workers int, stdout, stderr io.Writer) int {
	var specs []workload.AttackSpec
	for _, part := range strings.Split(list, ";") {
		s, err := workload.ParseAttack(part)
		if err != nil {
			fmt.Fprintf(stderr, "irsim: -attack %q: %v\n", part, err)
			return 2
		}
		if !s.Zero() {
			specs = append(specs, s)
		}
	}
	if len(specs) == 0 {
		fmt.Fprintf(stderr, "irsim: -attack %q names no attack kind\n", list)
		return 2
	}
	defenses := experiments.AttackDefenses()
	outs := make([]experiments.AttackOutcome, len(specs)*len(defenses))
	errs := make([]error, len(outs))
	fns := make([]func(), len(outs))
	for i := range fns {
		spec, d := specs[i/len(defenses)], defenses[i%len(defenses)]
		fns[i] = func() { outs[i], errs[i] = experiments.RunAttack(spec, d, seed) }
	}
	experiments.ParallelDo(workers, fns)

	tb := experiments.Table{
		ID:      "attack",
		Title:   fmt.Sprintf("attacker %q vs accounting defenses", list),
		Columns: experiments.AttackColumns(),
	}
	code := 0
	for i, out := range outs {
		if errs[i] != nil {
			fmt.Fprintf(stderr, "irsim: attack %s/%s: %v\n", specs[i/len(defenses)], defenses[i%len(defenses)].Name, errs[i])
			code = 1
			continue
		}
		tb.Rows = append(tb.Rows, experiments.AttackRow(out))
	}
	fmt.Fprint(stdout, tb)
	fmt.Fprintln(stdout)
	if expect <= 0 || code != 0 {
		return code
	}

	for _, out := range outs {
		if out.Defense != "both" {
			continue
		}
		if out.FairRatio > expect {
			fmt.Fprintf(stderr, "irsim: attack gate FAILED: defended %s still obtains %.3fx fair share (cap %.2fx)\n",
				out.Attacker, out.FairRatio, expect)
			code = 1
			continue
		}
		fmt.Fprintf(stderr, "irsim: attack gate ok: defended %s held to %.3fx fair share (cap %.2fx)\n",
			out.Attacker, out.FairRatio, expect)
	}
	return code
}
