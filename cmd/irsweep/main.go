// Command irsweep runs ad-hoc parameter sweeps. The default dimension
// is one rig against a range of interference levels under all four
// scheduling strategies: -spec is the rig in core.ParseHostSpec syntax
// (default streamcluster on a 4-vCPU VM fg, defaultRig), and each
// -inter level n > 0 adds a VM bg of n CPU hogs pinned from pCPU 0;
// every cell is validated before any runs. A rig with 8 pCPUs, a
// spinning fg and floating vCPUs reads
// "host:pcpus=8,unpinned=on,horizon=30m; vm:name=fg,kind=bench,bench=CG,mode=spin,vcpus=8"; -cluster instead sweeps the cluster
// table's rigs (first-fit, least-loaded, interference-aware ± IRS, and
// chaos) across rack sizes. Every cell is an isolated deterministic
// simulation fanned out across worker goroutines, so the printed table
// is identical at any -workers setting.
//
// Usage:
//
//	irsweep [-spec RIG] -inter 0,1,2,4 [-seed S] [-runs N] [-workers N]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	irsweep -cluster [-hosts 2,3,4] [-zones 1] [-seed S] [-workers N]
//	irsweep -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// defaultRig is streamcluster on a 4-vCPU VM pinned one vCPU per pCPU.
const defaultRig = "host:pcpus=4,horizon=30m; vm:name=fg,kind=bench,bench=streamcluster,vcpus=4"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	host := cli.AddHost(fs, defaultRig)
	interList := fs.String("inter", "0,1,2,4", "comma-separated interference levels: hog VM bg's vCPUs (0 = none)")
	runs := fs.Int("runs", 3, "runs per data point")
	list := fs.Bool("list", false, "list benchmark names and exit")
	clusterSweep := fs.Bool("cluster", false, "sweep the multi-host placement variants across rack sizes")
	hostsList := fs.String("hosts", "2,3,4", "comma-separated host counts for -cluster (per zone when -zones > 1)")
	zones := fs.Int("zones", 1, "zone count for -cluster: >1 runs each rack size under the two-level zone scheduler")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	prof := cli.AddProfile(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, n := range workload.Names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	stop, err := prof.Start(stderr)
	if err != nil {
		fmt.Fprintf(stderr, "irsweep: %v\n", err)
		return 1
	}
	defer stop()

	if *clusterSweep {
		hosts, ok := parseIntList(*hostsList)
		if !ok || len(hosts) == 0 || slices.Min(hosts) < 1 {
			fmt.Fprintf(stderr, "irsweep: bad -hosts %q (want host counts >= 1)\n", *hostsList)
			return 2
		}
		if *zones < 1 {
			fmt.Fprintf(stderr, "irsweep: bad -zones %d\n", *zones)
			return 2
		}
		return clusterMatrix(stdout, stderr, hosts, *zones, *host.Seed, *workers)
	}

	rig, err := host.Resolve("bench")
	if err != nil {
		fmt.Fprintf(stderr, "irsweep: %v\n", err)
		return 2
	}
	levels, ok := parseIntList(*interList)
	if !ok {
		fmt.Fprintf(stderr, "irsweep: bad -inter %q\n", *interList)
		return 2
	}
	if *runs < 1 {
		fmt.Fprintf(stderr, "irsweep: bad -runs %d (want >= 1)\n", *runs)
		return 2
	}
	// Every level's rig is checked before any cell runs: a level that
	// cannot be pinned is bad input, not a failed run.
	rigs := make([]core.HostSpec, len(levels))
	for li, lvl := range levels {
		text := rig.String()
		if lvl > 0 {
			text += fmt.Sprintf("; vm:name=bg,kind=hog,vcpus=%d", lvl)
		}
		if rigs[li], err = core.ParseHostSpec(text); err != nil {
			fmt.Fprintf(stderr, "irsweep: -inter %d: %v\n", lvl, err)
			return 2
		}
	}

	strats := core.Strategies()
	names := make([]string, len(strats))
	for i, st := range strats {
		names[i] = st.String()
	}
	return printMatrix(stdout, stderr, *workers, "inter", 10, 12, levels, names, "",
		func(lvl int) string { return fmt.Sprintf("inter %d", lvl) },
		func(li, si int) (string, error) {
			mean, err := sweepPoint(rigs[li], strats[si], *host.Seed, *runs)
			return fmt.Sprintf("%.3fs", mean), err
		})
}

// printMatrix computes every rows × cols cell up front on the worker
// pool — each is an isolated simulation — then prints the matrix
// serially, so it is identical at any -workers setting. A failed cell
// prints ERR and names its error on stderr under what(row); any
// failure makes the exit code 1.
func printMatrix(stdout, stderr io.Writer, workers int, corner string, w, cw int, rows []int, cols []string, suffix string,
	what func(row int) string, cell func(ri, ci int) (string, error)) int {
	type result struct {
		text string
		err  error
	}
	res := make([]result, len(rows)*len(cols))
	var fns []func()
	for ri := range rows {
		for ci := range cols {
			fns = append(fns, func() {
				text, err := cell(ri, ci)
				res[ri*len(cols)+ci] = result{text, err}
			})
		}
	}
	experiments.ParallelDo(workers, fns)

	fmt.Fprintf(stdout, "%-*s", w, corner)
	for _, c := range cols {
		fmt.Fprintf(stdout, "  %-*s", cw, c+suffix)
	}
	fmt.Fprintln(stdout)
	code := 0
	for ri, r := range rows {
		fmt.Fprintf(stdout, "%-*d", w, r)
		for ci, c := range cols {
			out := res[ri*len(cols)+ci]
			if out.err != nil {
				out.text, code = "ERR", 1
				fmt.Fprintf(stderr, "irsweep: %s, %s: %v\n", what(r), c, out.err)
			}
			fmt.Fprintf(stdout, "  %-*s", cw, out.text)
		}
		fmt.Fprintln(stdout)
	}
	return code
}

// parseIntList parses a comma-separated list of non-negative ints.
func parseIntList(s string) ([]int, bool) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, false
		}
		out = append(out, n)
	}
	return out, true
}

// clusterMatrix sweeps the cluster table's rigs over rack sizes: one
// row per host count, one column triple (p99, SLO-violation rate,
// migrations) per rig. Each cell compiles the rig's spec, then swaps
// in the rack: zones × n hosts, so with zones > 1 each rack size is per
// zone and every cell runs under the two-level zone scheduler and
// partitioned router.
func clusterMatrix(stdout, stderr io.Writer, hosts []int, zones int, seed uint64, workers int) int {
	variants := experiments.TableRigs("cluster")
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.Name
	}
	hdr := "hosts"
	if zones > 1 {
		hdr = fmt.Sprintf("hosts/%dz", zones)
	}
	return printMatrix(stdout, stderr, workers, hdr, 8, 24, hosts, names, " p99/slo/migr",
		func(n int) string { return fmt.Sprintf("%d hosts", n) },
		func(hi, vi int) (string, error) {
			res, err := sweepRig(variants[vi], zones, hosts[hi], seed)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%.3fms/%.2f%%/%d", float64(res.P99)/float64(sim.Millisecond), res.SLORate*100, res.Migrations), nil
		})
}

// sweepRig runs one cluster rig on a rack of zones × n hosts.
func sweepRig(v experiments.Rig, zones, n int, seed uint64) (*cluster.Result, error) {
	_, cfg, err := experiments.ScaleRig(v.Spec, seed)
	if err != nil {
		return nil, err
	}
	cfg.Hosts = zones * n
	cfg.Topology = topology.Uniform(zones, n)
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return c.Run()
}

// sweepPoint averages fg's runtime in rig under strat over runs; the
// first failed run fails the cell.
func sweepPoint(rig core.HostSpec, strat core.Strategy, seed uint64, runs int) (float64, error) {
	rig = rig.WithStrategy(strat)
	var rts []float64
	err := core.Repeat(seed, runs, func(_ int, seed uint64) error {
		res, err := core.Run(rig.Scenario(seed))
		if err != nil {
			return err
		}
		rts = append(rts, res.VM("fg").Runtime.Seconds())
		return nil
	})
	return obs.Summarize(rts).Mean, err
}
