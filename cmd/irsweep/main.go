// Command irsweep runs ad-hoc parameter sweeps. The default dimension
// is one benchmark against a range of interference levels under all
// four scheduling strategies; -cluster instead sweeps the cluster
// table's rigs (first-fit, least-loaded, interference-aware ± IRS, and
// chaos) across rack sizes. Every cell is an isolated deterministic
// simulation fanned out across worker goroutines, so the printed table
// is identical at any -workers setting.
//
// Usage:
//
//	irsweep -bench streamcluster -inter 0,1,2,4 [-mode spin|block] [-vcpus 4]
//	        [-unpinned] [-seed S] [-runs N] [-workers N]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	irsweep -cluster [-hosts 2,3,4] [-zones 1] [-shards N] [-seed S] [-workers N]
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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchName := fs.String("bench", "streamcluster", "benchmark name (see -list)")
	interList := fs.String("inter", "0,1,2,4", "comma-separated interference levels")
	modeName := fs.String("mode", "", "override wait policy: spin or block")
	vcpus := fs.Int("vcpus", 4, "foreground vCPUs (== pCPUs)")
	unpinned := fs.Bool("unpinned", false, "leave vCPUs unpinned (stacking setup)")
	seed := fs.Uint64("seed", 1, "base random seed")
	runs := fs.Int("runs", 3, "runs per data point")
	list := fs.Bool("list", false, "list benchmark names and exit")
	clusterSweep := fs.Bool("cluster", false, "sweep the multi-host placement variants across rack sizes")
	hostsList := fs.String("hosts", "2,3,4", "comma-separated host counts for -cluster (per zone when -zones > 1)")
	zones := fs.Int("zones", 1, "zone count for -cluster: >1 runs each rack size under the two-level zone scheduler")
	shards := fs.Int("shards", 0, "per-host engine shards inside each -cluster cell (0 = auto, 1 = serial; output is identical at any setting)")
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
		return clusterMatrix(stdout, stderr, hosts, *zones, *seed, *workers, *shards)
	}

	bench, ok := workload.ByName(*benchName)
	if !ok {
		fmt.Fprintf(stderr, "irsweep: unknown benchmark %q (try -list)\n", *benchName)
		return 2
	}
	var mode workload.SyncMode
	switch *modeName {
	case "":
	case "spin":
		mode = workload.SyncSpinning
	case "block":
		mode = workload.SyncBlocking
	default:
		fmt.Fprintf(stderr, "irsweep: bad -mode %q\n", *modeName)
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
	if *vcpus < 1 {
		fmt.Fprintf(stderr, "irsweep: bad -vcpus %d (want >= 1)\n", *vcpus)
		return 2
	}

	// Compute every (level, strategy) cell up front — each is an
	// isolated simulation — then print the matrix serially.
	strats := core.Strategies()
	type cell struct {
		mean float64
		err  error
	}
	cells := make([]cell, len(levels)*len(strats))
	var fns []func()
	for li, lvl := range levels {
		for si, st := range strats {
			fns = append(fns, func() {
				mean, err := sweepPoint(bench, mode, st, lvl, *vcpus, *unpinned, *seed, *runs)
				cells[li*len(strats)+si] = cell{mean: mean, err: err}
			})
		}
	}
	experiments.ParallelDo(*workers, fns)

	fmt.Fprintf(stdout, "%-10s", "inter")
	for _, st := range strats {
		fmt.Fprintf(stdout, "  %-12s", st)
	}
	fmt.Fprintln(stdout)
	bad := 0
	for li, lvl := range levels {
		fmt.Fprintf(stdout, "%-10d", lvl)
		for si, st := range strats {
			c := cells[li*len(strats)+si]
			if c.err != nil {
				fmt.Fprintf(stdout, "  %-12s", "ERR")
				fmt.Fprintf(stderr, "irsweep: inter %d, %s: %v\n", lvl, st, c.err)
				bad++
				continue
			}
			fmt.Fprintf(stdout, "  %-12s", fmt.Sprintf("%.3fs", c.mean))
		}
		fmt.Fprintln(stdout)
	}
	if bad > 0 {
		return 1
	}
	return 0
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
func clusterMatrix(stdout, stderr io.Writer, hosts []int, zones int, seed uint64, workers, shards int) int {
	variants := experiments.TableRigs("cluster")
	type cell struct {
		res *cluster.Result
		err error
	}
	cells := make([]cell, len(hosts)*len(variants))
	var fns []func()
	for hi, n := range hosts {
		for vi, v := range variants {
			fns = append(fns, func() {
				res, err := sweepRig(v, zones, n, seed, shards)
				cells[hi*len(variants)+vi] = cell{res, err}
			})
		}
	}
	experiments.ParallelDo(workers, fns)

	hdr := "hosts"
	if zones > 1 {
		hdr = fmt.Sprintf("hosts/%dz", zones)
	}
	fmt.Fprintf(stdout, "%-8s", hdr)
	for _, v := range variants {
		fmt.Fprintf(stdout, "  %-24s", v.Name+" p99/slo/migr")
	}
	fmt.Fprintln(stdout)
	bad := 0
	for hi, n := range hosts {
		fmt.Fprintf(stdout, "%-8d", n)
		for vi, v := range variants {
			c := cells[hi*len(variants)+vi]
			if c.err != nil {
				fmt.Fprintf(stdout, "  %-24s", "ERR")
				fmt.Fprintf(stderr, "irsweep: %d hosts, %s: %v\n", n, v.Name, c.err)
				bad++
				continue
			}
			fmt.Fprintf(stdout, "  %-24s", fmt.Sprintf("%.3fms/%.2f%%/%d",
				float64(c.res.P99)/float64(sim.Millisecond), c.res.SLORate*100, c.res.Migrations))
		}
		fmt.Fprintln(stdout)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// sweepRig runs one cluster rig on a rack of zones × n hosts.
func sweepRig(v experiments.Rig, zones, n int, seed uint64, shards int) (*cluster.Result, error) {
	_, cfg, err := experiments.ScaleRig(v.Spec, seed, shards)
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

func sweepPoint(bench workload.Benchmark, mode workload.SyncMode, strat core.Strategy, inter, vcpus int, unpinned bool, seed uint64, runs int) (float64, error) {
	var rts []float64
	for i := 0; i < runs; i++ {
		var fgPins, bgPins []int
		if !unpinned {
			fgPins = core.SeqPins(0, vcpus)
			bgPins = core.SeqPins(0, inter)
		}
		fg := core.BenchmarkVM("fg", bench, mode, vcpus, fgPins)
		fg.IRS = strat == core.StrategyIRS
		vms := []core.VMSpec{fg}
		if inter > 0 {
			vms = append(vms, core.HogVM("bg", inter, bgPins))
		}
		res, err := core.Run(core.Scenario{
			PCPUs:    vcpus,
			Strategy: strat,
			Seed:     seed + uint64(i)*7919,
			Unpinned: unpinned,
			Horizon:  1800 * sim.Second,
			VMs:      vms,
		})
		if err != nil {
			return 0, err
		}
		rts = append(rts, res.VM("fg").Runtime.Seconds())
	}
	return obs.Summarize(rts).Mean, nil
}
