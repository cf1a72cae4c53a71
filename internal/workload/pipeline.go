package workload

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/guestsync"
	"repro/internal/sim"
)

// PipelineSpec models pipeline-parallel benchmarks (dedup: 4 stages,
// ferret: 5 stages, each with several worker threads per stage). Items
// flow through bounded queues guarded by mutex + condition variables.
// Because every vCPU hosts several ready threads, the stock guest
// balancer already copes with preemption, which is why the paper sees
// only marginal IRS gains for these (§5.2).
type PipelineSpec struct {
	Name            string
	Stages          int
	ThreadsPerStage int
	Items           int
	// WorkPerStage is the mean compute one item needs in each stage.
	WorkPerStage sim.Time
	Imbalance    float64
	QueueCap     int
}

// TotalWork returns the nominal aggregate compute of one run.
func (s PipelineSpec) TotalWork() sim.Time {
	return sim.Time(s.Items*s.Stages) * s.WorkPerStage
}

// pipeQueue is a bounded blocking queue of work items. The push, pop
// and close protocols (lock the mutex, wait on a condition while full
// or empty, signal the other side, unlock) run as pipeWorker states.
type pipeQueue struct {
	mu       *guestsync.Mutex
	notEmpty *guestsync.Cond
	notFull  *guestsync.Cond
	items    int
	cap      int
	closed   bool
}

func newPipeQueue(kern *guest.Kernel, cap int) *pipeQueue {
	return &pipeQueue{
		mu:       guestsync.NewMutex(kern),
		notEmpty: guestsync.NewCond(kern),
		notFull:  guestsync.NewCond(kern),
		cap:      cap,
	}
}

// pipeShared is per-instance pipeline state.
type pipeShared struct {
	spec   PipelineSpec
	queues []*pipeQueue // queues[i] feeds stage i (stage 0 self-feeds)
	// producersLeft[i] counts live threads of stage i, to close the
	// downstream queue when a stage finishes.
	producersLeft []int
	rng           *sim.RNG
}

// pipeWorker is one thread of one pipeline stage: a state machine
// whose callbacks are bound once at construction, so moving an item
// through a stage allocates nothing.
type pipeWorker struct {
	sh    *pipeShared
	stage int
	// stage-0 workers generate toGen items then finish.
	toGen int
	done  bool
	rng   *sim.RNG

	// The item in progress. t and resume are the task and the kernel's
	// step callback handed to Action.Done; in and out are the queues
	// the stage pops from and pushes to (nil at the pipeline's ends).
	t       *guest.Task
	resume  func()
	work    sim.Time
	in, out *pipeQueue

	pushFn, popFn, finishFn                  func(t *guest.Task, resume func()) // Action.Done states
	pushLockedFn, popLockedFn, closeLockedFn func()                             // out.mu / in.mu held
	computedFn                               func()                             // popped item computed
}

func newPipeWorker(sh *pipeShared, stage int, rng *sim.RNG) *pipeWorker {
	w := &pipeWorker{sh: sh, stage: stage, rng: rng}
	if stage > 0 {
		w.in = sh.queues[stage]
	}
	if stage < sh.spec.Stages-1 {
		w.out = sh.queues[stage+1]
	}
	w.pushFn = w.bindThen(w.push)
	w.popFn = w.bindThen(w.pop)
	w.finishFn = w.bindThen(w.finishStage)
	w.pushLockedFn = w.pushLocked
	w.popLockedFn = w.popLocked
	w.closeLockedFn = w.closeLocked
	w.computedFn = w.computed
	return w
}

// bindThen adapts a state to Action.Done: it records the task and its
// step callback, then enters the state.
func (w *pipeWorker) bindThen(state func()) func(t *guest.Task, resume func()) {
	return func(t *guest.Task, resume func()) {
		w.t, w.resume = t, resume
		state()
	}
}

// Step implements guest.Program. Stage 0 generates items; later stages
// pop, compute, and push onward. Each Step handles one item.
func (w *pipeWorker) Step(t *guest.Task) guest.Action {
	if w.done {
		return guest.Exit()
	}
	sh := w.sh
	work := w.rng.Jitter(sh.spec.WorkPerStage, sh.spec.Imbalance)
	if w.stage == 0 {
		if w.toGen == 0 {
			w.done = true
			return guest.RunThen(0, w.finishFn)
		}
		w.toGen--
		return guest.RunThen(work, w.pushFn)
	}
	// Later stage: pop an item, compute, pass on.
	w.work = work
	return guest.RunThen(0, w.popFn)
}

// push adds an item to out, blocking while full, then resumes.
func (w *pipeWorker) push() { w.out.mu.Lock(w.t, w.pushLockedFn) }

func (w *pipeWorker) pushLocked() {
	q := w.out
	if q.items >= q.cap {
		q.notFull.Wait(w.t, q.mu, w.pushLockedFn)
		return
	}
	q.items++
	q.notEmpty.Signal()
	q.mu.Unlock(w.t)
	w.resume()
}

// pop removes an item from in, blocking while empty, and computes it;
// a closed, drained queue finishes the stage instead.
func (w *pipeWorker) pop() { w.in.mu.Lock(w.t, w.popLockedFn) }

func (w *pipeWorker) popLocked() {
	q := w.in
	if q.items == 0 {
		if q.closed {
			q.mu.Unlock(w.t)
			w.done = true
			w.finishStage()
			return
		}
		q.notEmpty.Wait(w.t, q.mu, w.popLockedFn)
		return
	}
	q.items--
	q.notFull.Signal()
	q.mu.Unlock(w.t)
	w.t.Kernel().RunInTask(w.t, w.work, w.computedFn)
}

func (w *pipeWorker) computed() {
	if w.out == nil {
		w.resume()
		return
	}
	w.push()
}

// finishStage decrements the live count of this stage and closes the
// downstream queue when the stage has fully drained.
func (w *pipeWorker) finishStage() {
	sh := w.sh
	sh.producersLeft[w.stage]--
	if sh.producersLeft[w.stage] == 0 && w.out != nil {
		w.out.mu.Lock(w.t, w.closeLockedFn)
		return
	}
	w.resume()
}

// closeLocked marks out finished; blocked poppers drain then stop.
func (w *pipeWorker) closeLocked() {
	q := w.out
	q.closed = true
	q.notEmpty.Broadcast()
	q.mu.Unlock(w.t)
	w.resume()
}

// NewPipeline instantiates a pipeline benchmark on kern.
func NewPipeline(kern *guest.Kernel, spec PipelineSpec, seed uint64) *Instance {
	if spec.Stages < 2 {
		panic("workload: pipeline needs at least 2 stages")
	}
	if spec.QueueCap <= 0 {
		spec.QueueCap = 8
	}
	in := &Instance{Name: spec.Name, kern: kern}
	in.spawn = func() {
		sh := &pipeShared{
			spec:          spec,
			rng:           sim.NewRNG(seed ^ 0x9199e),
			producersLeft: make([]int, spec.Stages),
		}
		sh.queues = make([]*pipeQueue, spec.Stages)
		for i := 1; i < spec.Stages; i++ {
			sh.queues[i] = newPipeQueue(kern, spec.QueueCap)
		}
		ncpu := len(kern.CPUs())
		n := 0
		for s := 0; s < spec.Stages; s++ {
			sh.producersLeft[s] = spec.ThreadsPerStage
			for i := 0; i < spec.ThreadsPerStage; i++ {
				w := newPipeWorker(sh, s, sh.rng.Fork(uint64(s*100+i)))
				if s == 0 {
					w.toGen = spec.Items / spec.ThreadsPerStage
					if i < spec.Items%spec.ThreadsPerStage {
						w.toGen++
					}
				}
				kern.Spawn(fmt.Sprintf("%s-s%d-%d", spec.Name, s, i), w, n%ncpu)
				n++
			}
		}
	}
	return in
}
