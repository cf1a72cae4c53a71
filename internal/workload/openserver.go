package workload

import (
	"fmt"

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
	queue    []Request // waiting requests, arrival order
	sleepers []openSleeper
	kern     *guest.Kernel
	genRNG   *sim.RNG
	genFn    func() // generate, bound once: it re-arms on every arrival
	Dropped  int64
	// gate is non-nil in remote-gate mode (NewRemoteServer): arrivals
	// are pushed in by an external router instead of generated here.
	gate *RemoteGate
}

type openSleeper struct {
	t    *guest.Task
	cont func()
}

// openWorker is one server thread in open-loop mode.
type openWorker struct {
	sh   *openServerShared
	rng  *sim.RNG
	reqs int
}

// Step implements guest.Program: take the next request or sleep.
func (w *openWorker) Step(t *guest.Task) guest.Action {
	sh := w.sh
	if t.Kernel().Now() >= sh.until && len(sh.queue) == 0 {
		return guest.Exit()
	}
	return guest.RunThen(0, func(tk *guest.Task, resume func()) {
		w.take(tk, resume)
	})
}

// take pops a request and services it, or sleeps until one arrives.
func (w *openWorker) take(t *guest.Task, resume func()) {
	sh := w.sh
	if len(sh.queue) == 0 {
		if t.Kernel().Now() >= sh.until {
			resume() // Step will exit
			return
		}
		sh.sleepers = append(sh.sleepers, openSleeper{t: t, cont: func() {
			w.take(t, resume)
		}})
		t.Kernel().BlockTask(t)
		return
	}
	req := sh.queue[0]
	sh.queue = sh.queue[1:]
	if g := sh.gate; g != nil {
		g.inflight++
	}
	if req.Span != nil {
		// A worker owns the request from here: the span leaves the
		// queue phase and starts tracking the task's scheduling fate.
		req.Span.BeginPhase(t.Kernel().Now(), "service", span.CatKernel)
		t.Kernel().AttachSpan(t, req.Span)
	}
	w.reqs++
	locked := sh.spec.LockEvery > 0 && w.reqs%sh.spec.LockEvery == 0
	service := w.rng.Exp(sh.spec.Service)
	finish := func() {
		now := t.Kernel().Now()
		sh.stats.Requests++
		lat := now - req.Arrival
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
		resume()
	}
	t.Kernel().RunInTask(t, service, func() {
		if !locked {
			finish()
			return
		}
		// Every LockEvery-th request touches the shared mutex for
		// LockCS — the lock-holder-preemption surface of the open loop.
		sh.mu.Lock(t, func() {
			t.Kernel().RunInTask(t, sh.spec.LockCS, func() {
				sh.mu.Unlock(t)
				finish()
			})
		})
	})
}

// generate schedules the next external arrival.
func (sh *openServerShared) generate() {
	now := sh.kern.Now()
	if now >= sh.until {
		// Run down: wake every sleeper so workers can exit.
		sl := sh.sleepers
		sh.sleepers = nil
		for _, s := range sl {
			sh.kern.WakeTask(s.t, s.cont)
		}
		return
	}
	sh.queue = append(sh.queue, Request{Arrival: now, Span: sh.kern.Spans().Start(now)})
	if len(sh.sleepers) > 0 {
		s := sh.sleepers[0]
		sh.sleepers = sh.sleepers[1:]
		sh.kern.WakeTask(s.t, s.cont)
	}
	sh.kern.Engine().After(sh.genRNG.Exp(sh.spec.Arrival), sh.genFn)
}

// newOpenServer wires the open-loop variant; called from NewServer when
// spec.Arrival > 0.
func newOpenServer(kern *guest.Kernel, spec ServerSpec, seed uint64, stats *ServerStats) *Instance {
	in := &Instance{Name: spec.Name, kern: kern}
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
			w := &openWorker{sh: sh, rng: sh.rng.Fork(uint64(i))}
			kern.Spawn(fmt.Sprintf("%s-%d", spec.Name, i), w, i%len(kern.CPUs()))
		}
		// External clients: arrivals run on the engine, not on a vCPU.
		kern.Engine().After(sh.genRNG.Exp(spec.Arrival), sh.genFn)
		// A final sweep at the deadline releases any sleeping workers.
		kern.Engine().At(sh.until, sh.genFn)
	}
	return in
}
