// Command irsblame runs the bully workload with causal span tracing
// enabled and prints, per scheduling strategy, the end-to-end latency
// blame breakdown: which scheduler pathology (preemption wait, LHP
// spinning, SA handshakes, queueing, migration downtime, ...) owns what
// share of the p50/p99/p99.9 request cohorts, plus the critical paths
// of the slowest individual requests. With -perfetto it also writes the
// slowest requests' nested span trees as a Chrome/Perfetto trace, and
// with -csv the per-band category breakdown as a machine-readable
// table.
//
// Usage:
//
//	irsblame [-spec RIG] [-strategy vanilla,irs] [-seed 1] [-top 3]
//	         [-perfetto spans.json] [-csv blame.csv]
//
// -spec is the rig in core.ParseHostSpec syntax, its VM fg a server
// whose requests are traced; the default is the bully rig
// (experiments.BlameRig) with a 2 s request stream at a mean 500 µs
// inter-arrival. Shorten the stream by editing the server's duration=,
// or its arrival= to change the load.
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
	"repro/internal/obs"
	"repro/internal/span"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irsblame", flag.ContinueOnError)
	fs.SetOutput(stderr)
	host := cli.AddHost(fs, experiments.BlameRig(experiments.DefaultBlameDuration, experiments.DefaultBlameArrival).String())
	strategies := fs.String("strategy", "vanilla,irs", "comma-separated strategies: vanilla | ple | irs")
	top := fs.Int("top", 3, "slowest requests to show per strategy")
	perfetto := fs.String("perfetto", "", "write the slowest requests' span trees to this file (Chrome/Perfetto trace JSON)")
	csvPath := fs.String("csv", "", "write the per-band blame breakdown to this file as CSV")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rig, err := host.Resolve("server")
	if err != nil {
		fmt.Fprintf(stderr, "irsblame: %v\n", err)
		return 2
	}
	strats, err := cli.Strategies(*strategies, experiments.BlameStrategies()...)
	if err != nil {
		fmt.Fprintf(stderr, "irsblame: %v\n", err)
		return 2
	}

	var sets []span.TrackSet
	var csvRows [][]string
	for _, strat := range strats {
		spans, err := experiments.BlameRun(rig, strat, *host.Seed)
		if err != nil {
			fmt.Fprintf(stderr, "irsblame: %s: %v\n", strat, err)
			return 1
		}
		name := strat.String()
		an := span.Analyze(spans, obs.DefaultSketchAlpha)
		printAnalysis(stdout, name, an, *top)
		sets = append(sets, span.TrackSet{Name: name, Spans: an.Slowest(*top)})
		csvRows = append(csvRows, blameCSVRows(name, an)...)
	}

	for _, exp := range []struct {
		path, what string
		write      func(io.Writer) error
	}{
		{*csvPath, "blame breakdown CSV", func(w io.Writer) error { return obs.WriteCSVTable(w, blameCSVHeader(), csvRows) }},
		{*perfetto, "perfetto span trace", func(w io.Writer) error { return span.WriteChromeSpans(w, sets) }},
	} {
		if exp.path == "" {
			continue
		}
		if err := obs.WriteFile(exp.path, stdout, exp.write); err != nil {
			fmt.Fprintf(stderr, "irsblame: %v\n", err)
			return 1
		}
		// A "-" export is the payload itself; a confirmation would
		// corrupt it.
		if exp.path != "-" {
			fmt.Fprintf(stdout, "wrote %s to %s\n", exp.what, exp.path)
		}
	}
	return 0
}

// printAnalysis renders one strategy's blame breakdown.
func printAnalysis(w io.Writer, name string, an *span.Analysis, top int) {
	fmt.Fprintf(w, "== %s: %d requests, p50 %v p99 %v p99.9 %v ==\n",
		name, an.Requests,
		time.Duration(an.Wall.Percentile(50)),
		time.Duration(an.Wall.Percentile(99)),
		time.Duration(an.Wall.Percentile(99.9)))
	fmt.Fprintf(w, "conservation: %d violations, max error %v\n", an.Violations, time.Duration(an.MaxError))
	for _, b := range an.Bands {
		fmt.Fprintf(w, "  %-6s %5d reqs  %s\n", b.Label, b.Requests, shareLine(b.Shares, 5))
	}
	if top <= 0 {
		fmt.Fprintln(w)
		return
	}
	fmt.Fprintf(w, "slowest %d requests:\n", top)
	for _, sp := range an.Slowest(top) {
		fmt.Fprintf(w, "  #%d wall %v: %s\n", sp.ID, time.Duration(sp.Wall()), shareLine(sp.TopContributors(4), 4))
		fmt.Fprintf(w, "    %s\n", criticalPath(sp, 12))
	}
	fmt.Fprintln(w)
}

// shareLine renders the top-k category shares as "cat pct (time)".
func shareLine(shares []span.CategoryShare, k int) string {
	var parts []string
	for i, s := range shares {
		if i >= k {
			parts = append(parts, fmt.Sprintf("(+%d more)", len(shares)-k))
			break
		}
		parts = append(parts, fmt.Sprintf("%s %.1f%% (%v)", s.Cat, s.Share*100, time.Duration(s.Time)))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ", ")
}

// criticalPath renders the span's segment timeline, phase by phase. A
// request span is single-threaded, so the whole timeline IS the
// critical path; long chains are truncated to maxSegs segments.
func criticalPath(sp *span.Span, maxSegs int) string {
	var b strings.Builder
	segs := 0
	for pi := 0; pi < sp.NumPhases(); pi++ {
		ph := sp.Phase(pi)
		if pi > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s[", ph.Name)
		for si := 0; si < ph.Len; si++ {
			if segs >= maxSegs {
				fmt.Fprintf(&b, " …+%d", sp.SegmentCount()-segs)
				segs = sp.SegmentCount()
				break
			}
			if si > 0 {
				b.WriteString(" → ")
			}
			seg := sp.Segment(ph.First + si)
			fmt.Fprintf(&b, "%s %v", seg.Cat, time.Duration(seg.Dur()))
			segs++
		}
		b.WriteByte(']')
		if segs >= maxSegs && pi < sp.NumPhases()-1 {
			fmt.Fprintf(&b, " …")
			break
		}
	}
	return b.String()
}

// blameCSVHeader names the machine-readable breakdown's columns.
func blameCSVHeader() []string {
	return []string{"strategy", "band", "requests", "band_wall_ns",
		"category", "time_ns", "share"}
}

// blameCSVRows flattens one strategy's per-band category breakdown
// into CSV rows: one row per (band, category) with the time and share.
func blameCSVRows(strategy string, an *span.Analysis) [][]string {
	var rows [][]string
	for _, b := range an.Bands {
		for _, sh := range b.Shares {
			rows = append(rows, []string{
				strategy,
				b.Label,
				fmt.Sprintf("%d", b.Requests),
				fmt.Sprintf("%d", int64(b.Wall)),
				sh.Cat.String(),
				fmt.Sprintf("%d", int64(sh.Time)),
				fmt.Sprintf("%.6f", sh.Share),
			})
		}
	}
	return rows
}
