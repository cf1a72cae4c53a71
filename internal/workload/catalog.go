package workload

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/guest"
	"repro/internal/sim"
)

// Kind discriminates the program family a benchmark belongs to.
type Kind int

const (
	// KindParallel is a data-parallel loop (barriers and/or locks).
	KindParallel Kind = iota + 1
	// KindPipeline is pipeline parallelism with per-stage thread pools.
	KindPipeline
	// KindWorkSteal is user-level work stealing.
	KindWorkSteal
)

// Benchmark is a catalog entry. Exactly one of the spec fields is used
// according to Kind. The parameters encode each benchmark's
// synchronization structure and granularity as characterised in the
// paper (§2.3, §5.1, §5.5); absolute work is scaled to a few virtual
// seconds per run.
type Benchmark struct {
	Name      string
	Suite     string // "parsec" or "npb"
	Kind      Kind
	Parallel  ParallelSpec
	Pipeline  PipelineSpec
	WorkSteal WorkStealSpec
}

// Instantiate creates the benchmark on kern. mode overrides the
// synchronization wait policy for KindParallel benchmarks (NPB runs
// blocking in Fig. 2 with OMP_WAIT_POLICY=passive and spinning in the
// main evaluation with active).
func (b Benchmark) Instantiate(kern *guest.Kernel, mode SyncMode, seed uint64) *Instance {
	switch b.Kind {
	case KindParallel:
		spec := b.Parallel
		if mode != 0 {
			spec.Mode = mode
		}
		return NewParallel(kern, spec, seed)
	case KindPipeline:
		return NewPipeline(kern, b.Pipeline, seed)
	case KindWorkSteal:
		return NewWorkSteal(kern, b.WorkSteal, seed)
	default:
		panic(fmt.Sprintf("workload: bad kind %d for %s", b.Kind, b.Name))
	}
}

// DefaultMode returns the benchmark's native wait policy.
func (b Benchmark) DefaultMode() SyncMode {
	if b.Kind == KindParallel {
		return b.Parallel.Mode
	}
	return SyncBlocking
}

// par is a helper to build ParallelSpec catalog entries.
func par(name, suite string, mode SyncMode, iters int, work sim.Time, imb float64, locks int, cs sim.Time, barrierEvery int) Benchmark {
	return Benchmark{
		Name:  name,
		Suite: suite,
		Kind:  KindParallel,
		Parallel: ParallelSpec{
			Name:         name,
			Mode:         mode,
			Iterations:   iters,
			Work:         work,
			Imbalance:    imb,
			LocksPerIter: locks,
			CSLen:        cs,
			BarrierEvery: barrierEvery,
		},
	}
}

// PARSEC returns the 12 PARSEC benchmarks of Figure 5, modelled by
// their dominant synchronization structure (pthread, blocking).
func PARSEC() []Benchmark {
	ms := sim.Millisecond
	us := sim.Microsecond
	return []Benchmark{
		// blackscholes: coarse pthread barriers between price sweeps.
		par("blackscholes", "parsec", SyncBlocking, 12, 250*ms, 0.05, 0, 0, 1),
		// dedup: 4-stage pipeline, 4 threads per stage.
		{Name: "dedup", Suite: "parsec", Kind: KindPipeline, Pipeline: PipelineSpec{
			Name: "dedup", Stages: 4, ThreadsPerStage: 4, Items: 600,
			WorkPerStage: 1200 * us, Imbalance: 0.3, QueueCap: 8,
		}},
		// streamcluster: barrier every 20-30 ms (fine-grained, §5.1).
		par("streamcluster", "parsec", SyncBlocking, 140, 25*ms, 0.10, 0, 0, 1),
		// canneal: fine-grained lock-based element swaps, no barriers.
		par("canneal", "parsec", SyncBlocking, 450, 8*ms, 0.10, 6, 40*us, 0),
		// fluidanimate: very fine mutexes plus per-frame barriers.
		par("fluidanimate", "parsec", SyncBlocking, 80, 45*ms, 0.08, 30, 25*us, 1),
		// vips: image pipeline approximated as mid-grained barriers+locks.
		par("vips", "parsec", SyncBlocking, 250, 13*ms, 0.15, 2, 50*us, 1),
		// bodytrack: condvar/barrier per processing stage, fine-grained.
		par("bodytrack", "parsec", SyncBlocking, 260, 12*ms, 0.12, 1, 60*us, 1),
		// ferret: 5-stage pipeline, 4 threads per stage.
		{Name: "ferret", Suite: "parsec", Kind: KindPipeline, Pipeline: PipelineSpec{
			Name: "ferret", Stages: 5, ThreadsPerStage: 4, Items: 500,
			WorkPerStage: 1200 * us, Imbalance: 0.3, QueueCap: 8,
		}},
		// swaptions: embarrassingly parallel, one final join.
		par("swaptions", "parsec", SyncBlocking, 8, 400*ms, 0.05, 0, 0, 8),
		// x264: exclusively mutex-based point-to-point sync (§5.5).
		par("x264", "parsec", SyncBlocking, 280, 11*ms, 0.18, 4, 80*us, 0),
		// raytrace: user-level work stealing.
		{Name: "raytrace", Suite: "parsec", Kind: KindWorkSteal, WorkSteal: WorkStealSpec{
			Name: "raytrace", Chunks: 700, ChunkWork: 4500 * us, Imbalance: 0.4, GrabCS: 5 * us,
		}},
		// facesim: fine-grained barriers per physics sub-step.
		par("facesim", "parsec", SyncBlocking, 220, 14*ms, 0.10, 0, 0, 1),
	}
}

// NPB returns the 9 NAS Parallel Benchmarks of Figure 6 (OpenMP,
// barrier-style group synchronization; wait policy set per experiment).
func NPB() []Benchmark {
	ms := sim.Millisecond
	return []Benchmark{
		par("BT", "npb", SyncSpinning, 160, 22*ms, 0.08, 0, 0, 1),
		par("LU", "npb", SyncSpinning, 230, 15*ms, 0.10, 0, 0, 1),
		par("CG", "npb", SyncSpinning, 500, 6*ms, 0.08, 0, 0, 1),
		par("EP", "npb", SyncSpinning, 8, 420*ms, 0.04, 0, 0, 8),
		par("FT", "npb", SyncSpinning, 60, 60*ms, 0.06, 0, 0, 1),
		par("IS", "npb", SyncSpinning, 350, 5*ms, 0.12, 0, 0, 1),
		par("MG", "npb", SyncSpinning, 420, 7*ms, 0.10, 0, 0, 1),
		par("SP", "npb", SyncSpinning, 380, 9*ms, 0.08, 0, 0, 1),
		par("UA", "npb", SyncSpinning, 420, 8*ms, 0.14, 0, 0, 1),
	}
}

// catalog indexes the combined PARSEC and NPB catalog by name, and
// catalogNames lists it sorted. Both are built once; lookups copy
// entries out, so no caller can mutate them.
var catalog, catalogNames = buildCatalog()

func buildCatalog() (map[string]Benchmark, []string) {
	all := append(PARSEC(), NPB()...)
	idx := make(map[string]Benchmark, len(all))
	names := make([]string, 0, len(all))
	for _, b := range all {
		idx[b.Name] = b
		names = append(names, b.Name)
	}
	sort.Strings(names)
	return idx, names
}

// ByName finds a benchmark in the combined catalog.
func ByName(name string) (Benchmark, bool) {
	b, ok := catalog[name]
	return b, ok
}

// Names lists all catalog benchmark names, sorted.
func Names() []string { return slices.Clone(catalogNames) }
