package workload

import (
	"fmt"
	"slices"

	"repro/internal/guest"
	"repro/internal/guestsync"
	"repro/internal/sim"
	"repro/internal/span"
)

// Open-loop server mode: requests arrive from simulated external
// clients with exponential inter-arrival times and queue until a worker
// thread picks them up, so recorded latency includes queueing delay.
// This complements the closed-loop mode (ServerSpec.Arrival == 0) and
// makes latency-vs-load studies possible: an interfered, slowed server
// builds queues and its tail latency explodes well before throughput
// does.

// Request is one queued request: its original arrival stamp plus the
// blame span riding with it (nil when causal tracing is off). The span
// follows the request through queueing, worker binding, migration
// carry-over, and service.
type Request struct {
	Arrival sim.Time
	Span    *span.Span
}

type openServerShared struct {
	*serverShared
	queue    reqQueue      // waiting requests, arrival order
	sleepers []*openWorker // idle workers, FIFO
	kern     *guest.Kernel
	genRNG   *sim.RNG
	genFn    func() // generate, bound once: it re-arms on every arrival
	Dropped  int64
	// gate is non-nil in remote-gate mode (NewRemoteServer): arrivals
	// are pushed in by an external router instead of generated here.
	gate *RemoteGate
}

// reqQueue is the FIFO of waiting requests. A pop clears its slot and
// advances head; the live window moves back to the front of the array
// when the queue drains, or when an append would otherwise grow an
// array that is at least half dead prefix. A steady request stream
// therefore reuses one backing array.
type reqQueue struct {
	buf  []Request
	head int
}

func (q *reqQueue) len() int { return len(q.buf) - q.head }

func (q *reqQueue) push(r Request) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, r)
}

// pop removes the oldest request; the queue must be non-empty.
func (q *reqQueue) pop() Request {
	r := q.buf[q.head]
	q.buf[q.head] = Request{}
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return r
}

// drain detaches every waiting request, handing the caller its own
// slice.
func (q *reqQueue) drain() []Request {
	rs := q.buf[q.head:]
	q.buf, q.head = nil, 0
	return rs
}

// wakeOne hands the longest-idle worker the request just queued.
func (sh *openServerShared) wakeOne() {
	if len(sh.sleepers) > 0 {
		w := sh.sleepers[0]
		sh.sleepers = slices.Delete(sh.sleepers, 0, 1)
		sh.kern.WakeTask(w.t, w.takeAgainFn)
	}
}

// wakeAll releases every idle worker so it can observe the deadline.
func (sh *openServerShared) wakeAll() {
	sl := sh.sleepers
	sh.sleepers = nil
	for _, w := range sl {
		sh.kern.WakeTask(w.t, w.takeAgainFn)
	}
}

// openWorker is one server thread in open-loop mode: a state machine
// (take → service → optional lock → CS → unlock → finish) whose
// callbacks are bound once at construction, so serving a request
// allocates nothing.
type openWorker struct {
	sh   *openServerShared
	rng  *sim.RNG
	reqs int

	// The request in progress. t and resume are the task and the
	// kernel's step callback handed to Action.Done.
	t      *guest.Task
	resume func()
	req    Request
	locked bool

	takeFn                                    func(t *guest.Task, resume func()) // Action.Done
	takeAgainFn, servedFn, lockedFn, csDoneFn func()
}

func newOpenWorker(sh *openServerShared, rng *sim.RNG) *openWorker {
	w := &openWorker{sh: sh, rng: rng}
	w.takeFn = func(t *guest.Task, resume func()) {
		w.t, w.resume = t, resume
		w.take()
	}
	w.takeAgainFn = w.take
	w.servedFn = w.served
	w.lockedFn = w.lockHeld
	w.csDoneFn = w.csDone
	return w
}

// Step implements guest.Program: take the next request or sleep.
func (w *openWorker) Step(t *guest.Task) guest.Action {
	sh := w.sh
	if t.Kernel().Now() >= sh.until && sh.queue.len() == 0 {
		return guest.Exit()
	}
	return guest.RunThen(0, w.takeFn)
}

// take pops a request and services it, or sleeps until one arrives.
func (w *openWorker) take() {
	sh, t := w.sh, w.t
	if sh.queue.len() == 0 {
		if t.Kernel().Now() >= sh.until {
			w.resume() // Step will exit
			return
		}
		sh.sleepers = append(sh.sleepers, w)
		t.Kernel().BlockTask(t)
		return
	}
	req := sh.queue.pop()
	if g := sh.gate; g != nil {
		g.inflight++
	}
	if req.Span != nil {
		// A worker owns the request from here: the span leaves the
		// queue phase and starts tracking the task's scheduling fate.
		req.Span.BeginPhase(t.Kernel().Now(), "service", span.CatKernel)
		t.Kernel().AttachSpan(t, req.Span)
	}
	w.req = req
	w.reqs++
	w.locked = sh.spec.LockEvery > 0 && w.reqs%sh.spec.LockEvery == 0
	t.Kernel().RunInTask(t, w.rng.Exp(sh.spec.Service), w.servedFn)
}

func (w *openWorker) served() {
	if !w.locked {
		w.finish()
		return
	}
	// Every LockEvery-th request touches the shared mutex for LockCS —
	// the lock-holder-preemption surface of the open loop.
	w.sh.mu.Lock(w.t, w.lockedFn)
}

func (w *openWorker) lockHeld() {
	w.t.Kernel().RunInTask(w.t, w.sh.spec.LockCS, w.csDoneFn)
}

func (w *openWorker) csDone() {
	w.sh.mu.Unlock(w.t)
	w.finish()
}

// finish records the served request and resumes the program.
func (w *openWorker) finish() {
	sh, t := w.sh, w.t
	now := t.Kernel().Now()
	sh.stats.Requests++
	lat := now - w.req.Arrival
	w.req = Request{}
	sh.stats.Latency.Add(lat)
	if el := now - sh.startedAt; el > sh.stats.Elapsed {
		sh.stats.Elapsed = el
	}
	if sp := t.Kernel().DetachSpan(t); sp != nil {
		sp.Finish(now)
	}
	if g := sh.gate; g != nil {
		g.inflight--
		g.served++
		if g.OnServed != nil {
			g.OnServed(lat)
		}
	}
	w.resume()
}

// generate schedules the next external arrival.
func (sh *openServerShared) generate() {
	now := sh.kern.Now()
	if now >= sh.until {
		// Run down: wake every sleeper so workers can exit.
		sh.wakeAll()
		return
	}
	sh.queue.push(Request{Arrival: now, Span: sh.kern.Spans().Start(now)})
	sh.wakeOne()
	sh.kern.Engine().After(sh.genRNG.Exp(sh.spec.Arrival), sh.genFn)
}

// newOpenServer wires the open-loop variant; called from NewServer when
// spec.Arrival > 0.
func newOpenServer(kern *guest.Kernel, spec ServerSpec, seed uint64, stats *ServerStats) *Instance {
	in := &Instance{Name: spec.Name, kern: kern, Server: stats}
	in.spawn = func() {
		sh := &openServerShared{
			serverShared: &serverShared{
				spec:      spec,
				stats:     stats,
				rng:       sim.NewRNG(seed ^ 0x09e27),
				startedAt: kern.Now(),
				until:     kern.Now() + spec.Duration,
			},
			kern: kern,
		}
		sh.genRNG = sh.rng.Fork(999)
		sh.genFn = sh.generate
		if spec.LockEvery > 0 {
			sh.mu = guestsync.NewMutex(kern)
		}
		for i := 0; i < spec.Threads; i++ {
			w := newOpenWorker(sh, sh.rng.Fork(uint64(i)))
			kern.Spawn(fmt.Sprintf("%s-%d", spec.Name, i), w, i%len(kern.CPUs()))
		}
		// External clients: arrivals run on the engine, not on a vCPU.
		kern.Engine().After(sh.genRNG.Exp(spec.Arrival), sh.genFn)
		// A final sweep at the deadline releases any sleeping workers.
		kern.Engine().At(sh.until, sh.genFn)
	}
	return in
}
