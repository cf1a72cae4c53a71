package experiments

import (
	"runtime"
	"sync"
)

// Parallel sweep runner. Every simulation in this package is an
// isolated deterministic engine, so a figure's full (setup × strategy ×
// seed) matrix can fan out across worker goroutines — as long as the
// *assembly* of results into a table stays serial and deterministic.
//
// The harness achieves that with a collect/execute/replay scheme:
//
//  1. collect: the figure's build function runs once with every job
//     request recorded (and zero values returned). Builders are
//     deterministic and never branch on measured values when deciding
//     *what* to measure, so this pass discovers the complete job set.
//  2. execute: the recorded jobs fan out across Options.Workers
//     goroutines through ParallelDo, the package's one worker pool.
//     Each result lands in its job's slot and is merged under the
//     job's canonical key, so completion order cannot influence
//     anything.
//  3. replay: the build function runs again. Every job request now
//     hits the memoized result, and the table is assembled by exactly
//     the code the serial harness runs — byte-identical output.
//
// Serial mode (Workers == 1) skips straight to a single build pass in
// which each job executes inline at first request; the memoization and
// assembly paths are shared, which is what the determinism test pins.
//
// Job closures run on worker goroutines: they must be self-contained
// simulations (core.Run or a private engine) and must not touch the
// harness, the options, or any shared mutable state.

// harness execution modes.
const (
	modeRun     = iota // execute jobs inline (or hit memoized results)
	modeCollect        // record job requests, return zero values
)

// pendingJob is one recorded simulation, keyed canonically.
type pendingJob struct {
	key string
	fn  func() any
}

// jobAs returns the memoized result for key, computing it with fn on
// the first request. In collect mode it records the job for the
// parallel phase and returns the zero value.
func jobAs[T any](h *harness, key string, fn func() T) T {
	if h.mode == modeCollect {
		if !h.seen[key] {
			h.seen[key] = true
			h.pending = append(h.pending, pendingJob{key: key, fn: func() any { return fn() }})
		}
		var zero T
		return zero
	}
	v, ok := h.results[key]
	if !ok {
		v = fn()
		h.results[key] = v
	}
	return v.(T)
}

// tryOut is a fallible job's result: its value or the error instead.
type tryOut[T any] struct {
	v   T
	err error
}

// tryJob is jobAs for work that can fail, such as a table row whose
// simulation errors out. A failed job is logged as "<key>: <err>" and
// its error returned so the caller can skip the cell; in collect mode
// it returns the zero value and a nil error.
func tryJob[T any](h *harness, key string, fn func() (T, error)) (T, error) {
	out := jobAs(h, key, func() tryOut[T] {
		v, err := fn()
		return tryOut[T]{v, err}
	})
	if out.err != nil {
		h.opt.Logf("%s: %v", key, out.err)
	}
	return out.v, out.err
}

// runPending executes every collected job on the ParallelDo pool and
// merges the results under their canonical keys.
func (h *harness) runPending() {
	jobs := h.pending
	h.pending = nil
	out := make([]any, len(jobs))
	fns := make([]func(), len(jobs))
	for i, j := range jobs {
		fns[i] = func() { out[i] = j.fn() }
	}
	ParallelDo(h.opt.Workers, fns)
	for i, j := range jobs {
		h.results[j.key] = out[i]
	}
}

// runFigure executes one figure build through the harness: serially
// when Workers == 1, otherwise via collect → parallel execute → replay.
func runFigure(opt Options, build func(*harness) Table) Table {
	h := newHarness(opt)
	if h.opt.Workers <= 1 {
		return build(h)
	}
	h.mode = modeCollect
	_ = build(h)
	h.mode = modeRun
	h.runPending()
	return build(h)
}

// ParallelDo runs the given independent functions across at most
// workers goroutines (0 = GOMAXPROCS, as for Options.Workers) and
// returns when all have completed. It is the harness's worker pool,
// and the commands use it for ad-hoc sweeps that do not go through
// figure tables.
func ParallelDo(workers int, fns []func()) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(fns) {
		workers = len(fns)
	}
	if workers <= 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	feed := make(chan func())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fn := range feed {
				fn()
			}
		}()
	}
	for _, fn := range fns {
		feed <- fn
	}
	close(feed)
	wg.Wait()
}
