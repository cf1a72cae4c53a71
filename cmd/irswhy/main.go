// Command irswhy answers "why did the scheduler do that?" for a
// cluster run: it executes a load spec with the decision audit log
// attached and prints the incident's decision trail, then lets you
// interrogate the full log with a filter query, rank the closest calls
// (smallest winning margins — where the schedule nearly went the other
// way), and export the records as JSON or a Perfetto trace that lines
// up with the span tracer's timeline. With -expect it gates CI on the
// exact trail.
//
// Usage:
//
//	irswhy [-variant 2z8h-outage | -spec 'topo:zones=2,...' | -file spec.load] [-kinds ctl]
//	       [-seed 1] [-shards 0] [-lookahead 250us]
//	       [-q 'kind=place vm=srv0 t>6s'] [-limit 20] [-top 5]
//	       [-expect cordon,failover,scale-up,scale-up,drain,drain]
//	       [-json decisions.json] [-perfetto decisions.trace]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/decision"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irswhy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	src := cli.AddLoadSpec(fs, "2z8h-outage")
	kindsFlag := fs.String("kinds", "ctl", "decision kinds to record: ctl, all, or a comma list (e.g. place,route)")
	query := fs.String("q", "", "print records matching this filter query (e.g. 'kind=place vm=srv0 t>6s')")
	limit := fs.Int("limit", 20, "cap on printed query records (0 = all)")
	top := fs.Int("top", 0, "print the N closest calls: scored decisions with the smallest winning margin")
	expect := fs.String("expect", "", "fail unless the decision trail is exactly this comma-separated step list")
	jsonOut := fs.String("json", "", "write the matched records as a JSON bundle to this file ('-' = stdout)")
	perfetto := fs.String("perfetto", "", "write the matched records as a Perfetto/Chrome trace to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *src.List {
		cli.PrintVariants(stdout)
		return 0
	}

	name, _, cfg, err := src.Resolve()
	if err != nil {
		fmt.Fprintf(stderr, "irswhy: %v\n", err)
		return 2
	}
	kinds, err := decision.ParseKinds(*kindsFlag)
	if err != nil {
		fmt.Fprintf(stderr, "irswhy: %v\n", err)
		return 2
	}
	q, err := decision.ParseQuery(*query)
	if err != nil {
		fmt.Fprintf(stderr, "irswhy: %v\n", err)
		return 2
	}

	c, err := experiments.RunWhy(cfg, kinds)
	if err != nil {
		fmt.Fprintf(stderr, "irswhy: %v\n", err)
		return 1
	}
	log := c.Decisions()
	recs := log.Records()

	fmt.Fprintf(stdout, "== irswhy %s: %d decisions (%s, dropped %d) ==\n",
		name, len(recs), decision.CountsString(recs), log.Dropped())
	trail := decision.Trail(recs)
	for _, step := range trail {
		fmt.Fprintf(stdout, "trail %-9s %s\n", step.Label, recLine(&step.Rec))
	}

	matched := recs
	if *query != "" {
		matched = decision.Filter(recs, q)
		fmt.Fprintf(stdout, "query %q: %d of %d records\n", q.String(), len(matched), len(recs))
		printRecs(stdout, matched, *limit)
	}
	if *top > 0 {
		fmt.Fprintf(stdout, "closest calls (top %d by winning margin):\n", *top)
		printRecs(stdout, decision.ClosestCalls(matched, *top), 0)
	}

	for _, exp := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*jsonOut, func(w io.Writer) error { return decision.WriteJSON(w, matched, log.Dropped()) }},
		{*perfetto, func(w io.Writer) error { return decision.WriteChromeTrace(w, matched) }},
	} {
		if exp.path == "" {
			continue
		}
		if err := obs.WriteFile(exp.path, stdout, exp.write); err != nil {
			fmt.Fprintf(stderr, "irswhy: %v\n", err)
			return 1
		}
		if exp.path != "-" {
			fmt.Fprintf(stdout, "wrote %s\n", exp.path)
		}
	}

	if *expect != "" {
		got := decision.TrailString(trail)
		if got != *expect {
			fmt.Fprintf(stderr, "irswhy: decision trail %q does not match -expect %q\n", got, *expect)
			return 1
		}
		fmt.Fprintf(stdout, "expect gate: trail %s — ok\n", got)
	}
	return 0
}

// recLine renders one decision record as a single line.
func recLine(r *decision.Record) string {
	margin := ""
	if m, ok := r.Margin(); ok {
		margin = fmt.Sprintf(" margin=%.3f", m)
	}
	return fmt.Sprintf("t=%-9s %-9s %-5s %s -> %s%s  %s",
		r.At, r.Kind, r.Chooser, r.Subject, r.Winner, margin, r.Detail)
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
