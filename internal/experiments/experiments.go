// Package experiments regenerates every table and figure of the
// paper's evaluation (§5). Each registered experiment (ByID, IDs) runs
// the corresponding scenario matrix on the simulator and returns a
// Table with the same rows/series the paper plots. EXPERIMENTS.md
// records paper-vs-measured values.
package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options controls experiment execution.
type Options struct {
	// Runs per data point (the paper averages 5; default 3).
	Runs int
	Seed uint64
	// Workers bounds how many simulations run concurrently. 0 selects
	// GOMAXPROCS (the parallel harness is on by default); 1 forces the
	// serial harness. Tables are byte-identical either way: results are
	// keyed and merged in canonical order and assembled by the same
	// serial code path (see parallel.go).
	Workers int
	// Verbose emits progress lines via Logf. Logf is only ever called
	// from the goroutine that invoked the experiment, never from
	// workers.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		o.Runs = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// interKind selects the interfering workload type (§5.1).
type interKind int

const (
	interHogs  interKind = iota + 1 // synthetic CPU hogs
	interBench                      // a real parallel application
)

// interference describes the background load.
type interference struct {
	kind  interKind
	bench workload.Benchmark // for interBench
	mode  workload.SyncMode
	level int // number of interfered foreground vCPUs
	vms   int // number of stacked interfering VMs (Fig. 11); default 1
}

func hogs(level int) interference { return interference{kind: interHogs, level: level, vms: 1} }

func benchInter(b workload.Benchmark, mode workload.SyncMode, level int) interference {
	return interference{kind: interBench, bench: b, mode: mode, level: level, vms: 1}
}

// setup is one simulator configuration point: the §5.1 rig of a VM fg
// running bench on pcpus (default 4) vCPUs against inter.
type setup struct {
	pcpus    int
	bench    workload.Benchmark
	mode     workload.SyncMode
	strat    core.Strategy
	inter    interference
	unpinned bool
	horizon  sim.Time // default 900 s
}

// spec renders the setup's rig as host-spec text: fg pinned one vCPU
// per pCPU, then inter's VMs bg0.. of level vCPUs each, pinned from
// pCPU 0 (every VM floats when unpinned). runSetup compiles it under
// strat, which key adds.
func (s setup) spec() string {
	pcpus, horizon := s.pcpus, s.horizon
	if pcpus == 0 {
		pcpus = 4
	}
	if horizon == 0 {
		horizon = 900 * sim.Second
	}
	var b strings.Builder
	fmt.Fprintf(&b, "host:pcpus=%d,unpinned=%v,horizon=%v; vm:name=fg,kind=bench,%s,vcpus=%d",
		pcpus, s.unpinned, horizon.Std(), benchFields(s.bench.Name, s.mode), pcpus)
	for v := 0; v < s.inter.vms && s.inter.level > 0; v++ {
		if s.inter.kind == interHogs {
			fmt.Fprintf(&b, "; vm:name=bg%d,kind=hog,vcpus=%d", v, s.inter.level)
		} else {
			fmt.Fprintf(&b, "; vm:name=bg%d,kind=background,%s,vcpus=%d", v, benchFields(s.inter.bench.Name, s.inter.mode), s.inter.level)
		}
	}
	return b.String()
}

// key is the setup's cache key: its strategy and its rig text, so no
// field a run reads can be missing from the key.
func (s setup) key() string { return s.strat.String() + "|" + s.spec() }

// hogRig is the rig most single-run tables share, as host-spec text:
// the §5.1 4-pCPU host with a 4-vCPU VM fg running a catalog benchmark
// (mode 0 keeps its native wait policy), pinned one vCPU per pCPU,
// against a VM bg of n CPU hogs pinned from pCPU 0. runRig sets the
// strategy.
func hogRig(bench string, mode workload.SyncMode, n int) string {
	return fmt.Sprintf("host:pcpus=4; vm:name=fg,kind=bench,%s,vcpus=4; vm:name=bg,kind=hog,vcpus=%d", benchFields(bench, mode), n)
}

// rigScenario parses a rig's spec text and compiles it under strat at
// seed (see core.HostSpec.WithStrategy).
func rigScenario(text string, strat core.Strategy, seed uint64) (core.Scenario, error) {
	spec, err := core.ParseHostSpec(text)
	if err != nil {
		return core.Scenario{}, err
	}
	return spec.WithStrategy(strat).Scenario(seed), nil
}

// runRig runs a rig's spec text once under strat at seed. tune, when
// non-nil, sets what the text does not describe: tuning hooks,
// metrics, the invariant checker.
func runRig(text string, strat core.Strategy, seed uint64, tune func(*core.Scenario)) (*core.Result, error) {
	scn, err := rigScenario(text, strat, seed)
	if err != nil {
		return nil, err
	}
	if tune != nil {
		tune(&scn)
	}
	return core.Run(scn)
}

// benchFields renders a catalog benchmark and its wait policy as vm
// fields; the native policy (mode 0) needs no mode field.
func benchFields(name string, mode workload.SyncMode) string {
	switch mode {
	case workload.SyncSpinning:
		return "bench=" + name + ",mode=spin"
	case workload.SyncBlocking:
		return "bench=" + name + ",mode=block"
	}
	return "bench=" + name
}

// point is the measured outcome of a setup, averaged over runs.
type point struct {
	fgRuntime float64 // seconds, mean
	bgRuntime float64 // seconds, mean per-completion of bg0 (0 if hogs)
	err       error
}

// harness caches measurements so vanilla baselines are shared, and
// carries the collect/execute/replay machinery of the parallel sweep
// runner (parallel.go).
type harness struct {
	opt  Options
	mode int // modeRun or modeCollect

	cache   map[string]point // assembled per-setup points
	results map[string]any   // memoized raw job results
	seen    map[string]bool  // keys already collected
	pending []pendingJob     // jobs awaiting the parallel phase
}

func newHarness(opt Options) *harness {
	return &harness{
		opt:     opt.withDefaults(),
		cache:   make(map[string]point),
		results: make(map[string]any),
		seen:    make(map[string]bool),
	}
}

// runOutcome is the raw result of one simulated run of a setup; it is
// what workers hand back to the assembly pass.
type runOutcome struct {
	fg  float64
	bg  float64
	err error
}

// runSetup executes one isolated simulation of s. It is a pure function
// of (s, seed) and safe to call from worker goroutines.
func runSetup(s setup, seed uint64) runOutcome {
	scn, err := rigScenario(s.spec(), s.strat, seed)
	if err != nil {
		return runOutcome{err: err}
	}
	res, err := core.Run(scn)
	if err != nil {
		return runOutcome{err: err}
	}
	out := runOutcome{fg: res.VM("fg").Runtime.Seconds()}
	if bgr := res.VM("bg0"); bgr != nil { // hogs never complete: 0
		out.bg = bgr.MeanRuntime.Seconds()
	}
	return out
}

// measure runs the setup opt.Runs times and averages. The individual
// runs are jobs — fanned out by the parallel harness, executed inline
// by the serial one — while the averaging below is always done here, in
// run order, so both harnesses perform the identical float arithmetic.
func (h *harness) measure(s setup) point {
	k := s.key()
	if h.mode != modeCollect {
		if p, ok := h.cache[k]; ok {
			return p
		}
	}
	outs := make([]runOutcome, h.opt.Runs)
	core.Repeat(h.opt.Seed, h.opt.Runs, func(i int, seed uint64) error {
		outs[i] = jobAs(h, fmt.Sprintf("%s#%d", k, i), func() runOutcome {
			return runSetup(s, seed)
		})
		return nil
	})
	if h.mode == modeCollect {
		return point{}
	}
	var fg, bg []float64
	var firstErr error
	for _, o := range outs {
		if o.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", k, o.err)
			}
			continue
		}
		fg = append(fg, o.fg)
		if o.bg > 0 {
			bg = append(bg, o.bg)
		}
	}
	p := point{err: firstErr}
	if len(fg) > 0 {
		p.fgRuntime = obs.Summarize(fg).Mean
		p.err = nil
	}
	if len(bg) > 0 {
		p.bgRuntime = obs.Summarize(bg).Mean
	}
	h.cache[k] = p
	h.opt.Logf("measured %s: fg=%.3fs bg=%.3fs err=%v", k, p.fgRuntime, p.bgRuntime, p.err)
	return p
}

// improvement returns the % runtime improvement of strat over vanilla
// for the given setup (positive = faster than vanilla).
func (h *harness) improvement(s setup, strat core.Strategy) float64 {
	base := s
	base.strat = core.StrategyVanilla
	vb := h.measure(base)
	s.strat = strat
	vm := h.measure(s)
	if vb.err != nil || vm.err != nil || vb.fgRuntime == 0 || vm.fgRuntime == 0 {
		return 0
	}
	return Improvement(vb.fgRuntime, vm.fgRuntime)
}

// weightedSpeedup returns the paper's §5.4 metric for a setup with a
// real background application.
func (h *harness) weightedSpeedup(s setup, strat core.Strategy) float64 {
	base := s
	base.strat = core.StrategyVanilla
	vb := h.measure(base)
	s.strat = strat
	vm := h.measure(s)
	if vb.err != nil || vm.err != nil || vm.fgRuntime == 0 || vb.fgRuntime == 0 {
		return 0
	}
	fgSp := Speedup(vb.fgRuntime, vm.fgRuntime)
	bgSp := 1.0
	if vb.bgRuntime > 0 && vm.bgRuntime > 0 {
		bgSp = Speedup(vb.bgRuntime, vm.bgRuntime)
	}
	return WeightedSpeedup(fgSp, bgSp)
}

func pct(v float64) string { return fmt.Sprintf("%+.1f%%", v) }

// Improvement returns the percentage improvement of measured over
// baseline for a lower-is-better metric (runtime, latency): positive
// means measured is faster.
func Improvement(baseline, measured float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - measured) / baseline * 100
}

// ThroughputImprovement returns the percentage improvement for a
// higher-is-better metric.
func ThroughputImprovement(baseline, measured float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (measured - baseline) / baseline * 100
}

// Speedup returns baseline/measured for lower-is-better metrics
// (performance normalized to vanilla, as in §5.4).
func Speedup(baseline, measured float64) float64 {
	if measured == 0 {
		return 0
	}
	return baseline / measured
}

// WeightedSpeedup is the paper's system-efficiency metric: the average
// of the foreground and background speedups (§5.4).
func WeightedSpeedup(fg, bg float64) float64 { return (fg + bg) / 2 }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// experiment is one registered table: its canonical ID, the aliases
// ByID also accepts, and the builder the harness runs.
type experiment struct {
	id      string
	aliases []string
	build   func(*harness) Table
}

// registry lists every experiment in `irsim list` order: the paper's
// figures, fig1a through sadelay (what All runs), then the ablations
// and the tables this reproduction adds.
var registry = []experiment{
	{id: "fig1a", build: fig1a},
	{id: "fig1b", build: fig1b},
	{id: "fig2", build: fig2},
	{id: "fig5", build: fig5},
	{id: "fig6", build: fig6},
	{id: "fig7", build: fig7},
	{id: "fig8", build: fig8},
	{id: "fig9", build: fig9},
	{id: "fig10", build: fig10},
	{id: "fig11", build: fig11},
	{id: "fig12", build: fig12},
	{id: "fig13", build: fig13},
	{id: "sadelay", aliases: []string{"sa", "tab-sa"}, build: saDelay},
	{id: "ab-pull", build: ablationIRSPull},
	{id: "ab-salimit", build: ablationSALimit},
	{id: "ab-ticket", build: ablationTicketLock},
	{id: "ab-spinblock", build: ablationSpinBlock},
	{id: "ab-strictco", build: ablationStrictCo},
	{id: "claims", build: evaluateClaims},
	{id: "obs", aliases: []string{"obs-counters"}, build: obsCounters},
	{id: "chaos", build: chaos},
	{id: "cluster", build: clusterTable},
	{id: "blame", build: blameTable},
	{id: "watch", build: watchTable},
	{id: "attack", build: attackTable},
	{id: "scale", build: scaleTable},
	{id: "why", build: whyTable},
}

// All runs the paper's figures, fig1a through sadelay, in paper order.
func All(opt Options) []Table {
	var tables []Table
	for _, e := range registry {
		tables = append(tables, runFigure(opt, e.build))
		if e.id == "sadelay" {
			break
		}
	}
	return tables
}

// ByID runs a single experiment by its table ID or one of its aliases
// (case-insensitive).
func ByID(id string, opt Options) (Table, bool) {
	id = strings.ToLower(id)
	for _, e := range registry {
		if e.id == id || slices.Contains(e.aliases, id) {
			return runFigure(opt, e.build), true
		}
	}
	return Table{}, false
}

// IDs lists every experiment's canonical ID in registry order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}
