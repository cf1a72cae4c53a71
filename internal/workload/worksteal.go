package workload

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/guestsync"
	"repro/internal/sim"
)

// WorkStealSpec models raytrace-style user-level load balancing: a
// shared pool of work chunks that threads grab through a tiny critical
// section. A slowed thread simply takes fewer chunks, so interference
// is absorbed — the resilience shown in Figures 1(a) and 2.
type WorkStealSpec struct {
	Name    string
	Threads int // 0 = one per vCPU
	Chunks  int
	// ChunkWork is the mean compute per chunk.
	ChunkWork sim.Time
	Imbalance float64
	// GrabCS is the critical-section length of taking a chunk.
	GrabCS sim.Time
}

// TotalWork returns the nominal aggregate compute of one run.
func (s WorkStealSpec) TotalWork() sim.Time {
	return sim.Time(s.Chunks) * s.ChunkWork
}

type stealShared struct {
	spec WorkStealSpec
	pool int
	lk   *guestsync.SpinLock
	rng  *sim.RNG
}

// stealWorker is one thread of a work-stealing instance: a state
// machine (lock → grab CS → unlock → chunk) whose callbacks are bound
// once at construction.
type stealWorker struct {
	sh   *stealShared
	done bool
	rng  *sim.RNG

	// The grab in progress; t and resume are the task and the kernel's
	// step callback handed to Action.Done.
	t      *guest.Task
	resume func()
	got    bool

	grabFn              func(t *guest.Task, resume func()) // Action.Done
	lockedFn, grabbedFn func()
}

func newStealWorker(sh *stealShared, rng *sim.RNG) *stealWorker {
	w := &stealWorker{sh: sh, rng: rng}
	w.grabFn = w.grab
	w.lockedFn = w.locked
	w.grabbedFn = w.grabbed
	return w
}

// Step implements guest.Program: grab a chunk (short spinlock CS),
// compute it, repeat until the pool drains.
func (w *stealWorker) Step(t *guest.Task) guest.Action {
	if w.done {
		return guest.Exit()
	}
	return guest.RunThen(0, w.grabFn)
}

func (w *stealWorker) grab(t *guest.Task, resume func()) {
	w.t, w.resume = t, resume
	w.sh.lk.Lock(t, w.lockedFn)
}

func (w *stealWorker) locked() {
	sh := w.sh
	w.got = sh.pool > 0
	if w.got {
		sh.pool--
	}
	w.t.Kernel().RunInTask(w.t, sh.spec.GrabCS, w.grabbedFn)
}

func (w *stealWorker) grabbed() {
	sh := w.sh
	sh.lk.Unlock(w.t)
	if !w.got {
		w.done = true
		w.resume()
		return
	}
	work := w.rng.Jitter(sh.spec.ChunkWork, sh.spec.Imbalance)
	w.t.Kernel().RunInTask(w.t, work, w.resume)
}

// NewWorkSteal instantiates a work-stealing benchmark on kern.
func NewWorkSteal(kern *guest.Kernel, spec WorkStealSpec, seed uint64) *Instance {
	threads := spec.Threads
	if threads <= 0 {
		threads = len(kern.CPUs())
	}
	in := &Instance{Name: spec.Name, kern: kern}
	in.spawn = func() {
		sh := &stealShared{
			spec: spec,
			pool: spec.Chunks,
			lk:   guestsync.NewSpinLock(kern),
			rng:  sim.NewRNG(seed ^ 0x57ea1),
		}
		for i := 0; i < threads; i++ {
			w := newStealWorker(sh, sh.rng.Fork(uint64(i)))
			kern.Spawn(fmt.Sprintf("%s-%d", spec.Name, i), w, i%len(kern.CPUs()))
		}
	}
	return in
}
