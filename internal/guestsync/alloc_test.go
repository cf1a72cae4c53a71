package guestsync_test

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/guestsync"
	"repro/internal/sim"
)

// Zero-allocation pins for the primitives' contended paths. The test
// programs bind their own callbacks once, so any allocation measured
// comes from the primitive or the kernel below it: a spin record, a
// per-wait closure, or a wait list re-grown after dropping its front.

// allocStep advances eng by d.
func allocStep(t *testing.T, eng *sim.Engine, d sim.Time) {
	t.Helper()
	if err := eng.Run(eng.Now() + d); err != nil {
		t.Fatal(err)
	}
}

// requireZeroAllocs warms the rig for 50 ms of virtual time, then fails
// if a further 1 ms step allocates.
func requireZeroAllocs(t *testing.T, eng *sim.Engine, what string) {
	t.Helper()
	allocStep(t, eng, 50*sim.Millisecond)
	if allocs := testing.AllocsPerRun(100, func() { allocStep(t, eng, sim.Millisecond) }); allocs != 0 {
		t.Fatalf("%s allocates %v allocs per ms of virtual time, want 0", what, allocs)
	}
}

// lockLoop computes for gap, then holds mu for cs, forever.
type lockLoop struct {
	mu      *guestsync.Mutex
	gap, cs sim.Time
	t       *guest.Task
	resume  func()
	held    int

	lockFn             func(t *guest.Task, resume func())
	lockedFn, unlockFn func()
}

func newLockLoop(mu *guestsync.Mutex, gap, cs sim.Time) *lockLoop {
	p := &lockLoop{mu: mu, gap: gap, cs: cs}
	p.lockFn = func(t *guest.Task, resume func()) {
		p.t, p.resume = t, resume
		p.mu.Lock(t, p.lockedFn)
	}
	p.lockedFn = func() {
		p.held++
		p.t.Kernel().RunInTask(p.t, p.cs, p.unlockFn)
	}
	p.unlockFn = func() {
		p.mu.Unlock(p.t)
		p.resume()
	}
	return p
}

func (p *lockLoop) Step(*guest.Task) guest.Action { return guest.RunThen(p.gap, p.lockFn) }

// TestMutexContendedZeroAllocs: critical sections longer than the
// adaptive-spin budget make every contended Lock spin, time out, sleep
// and be woken by the handoff in Unlock.
func TestMutexContendedZeroAllocs(t *testing.T) {
	eng, kern := rig(t, 3)
	mu := guestsync.NewMutex(kern)
	cs := 4 * kern.Config().SpinBeforeBlock
	var progs []*lockLoop
	for i := 0; i < 3; i++ {
		p := newLockLoop(mu, 10*sim.Microsecond, cs)
		progs = append(progs, p)
		kern.Spawn("m", p, i)
	}
	kern.Start()
	idle := kern.CPU(1).IdleTime
	requireZeroAllocs(t, eng, "contended mutex")
	if mu.Contentions < 100 || progs[1].held < 10 {
		t.Fatalf("contentions %d, task 1 held the lock %d times: mutex barely contended", mu.Contentions, progs[1].held)
	}
	if kern.CPU(1).IdleTime == idle {
		t.Fatal("no waiter ever slept after its spin budget")
	}
}

// barrierLoop computes work, then waits on bar, forever.
type barrierLoop struct {
	bar    *guestsync.Barrier
	work   sim.Time
	waitFn func(t *guest.Task, resume func())
}

func (p *barrierLoop) Step(*guest.Task) guest.Action { return guest.RunThen(p.work, p.waitFn) }

// TestBarrierSleepersZeroAllocs: one slow party makes the others spin
// out their budget and sleep, so every generation wakes sleepers.
func TestBarrierSleepersZeroAllocs(t *testing.T) {
	eng, kern := rig(t, 3)
	bar := guestsync.NewBarrier(kern, 3)
	wait := func(t *guest.Task, resume func()) { bar.Wait(t, resume) }
	for i, work := range []sim.Time{50, 50, 400} {
		kern.Spawn("b", &barrierLoop{bar: bar, work: work * sim.Microsecond, waitFn: wait}, i)
	}
	kern.Start()
	gens := bar.Generations
	idle := kern.CPU(0).IdleTime
	requireZeroAllocs(t, eng, "barrier with sleepers")
	if bar.Generations-gens < 100 {
		t.Fatalf("only %d barrier generations while measured", bar.Generations-gens)
	}
	if kern.CPU(0).IdleTime == idle {
		t.Fatal("no early arrival slept")
	}
}

// condPair is a producer or consumer on a counter guarded by mu, with
// cond signalled on every produce.
type condPair struct {
	mu       *guestsync.Mutex
	cond     *guestsync.Cond
	items    *int
	gap      sim.Time
	producer bool

	t      *guest.Task
	resume func()
	opFn   func(t *guest.Task, resume func())
	lockFn func()
}

func newCondPair(mu *guestsync.Mutex, cond *guestsync.Cond, items *int, gap sim.Time, producer bool) *condPair {
	p := &condPair{mu: mu, cond: cond, items: items, gap: gap, producer: producer}
	p.opFn = func(t *guest.Task, resume func()) {
		p.t, p.resume = t, resume
		p.mu.Lock(t, p.lockFn)
	}
	p.lockFn = p.locked
	return p
}

func (p *condPair) locked() {
	switch {
	case p.producer:
		*p.items++
		p.cond.Signal()
	case *p.items == 0:
		p.cond.Wait(p.t, p.mu, p.lockFn)
		return
	default:
		*p.items--
	}
	p.mu.Unlock(p.t)
	p.resume()
}

func (p *condPair) Step(*guest.Task) guest.Action { return guest.RunThen(p.gap, p.opFn) }

// TestCondSignalZeroAllocs: a fast consumer waits on the condition for
// every item a slower producer signals.
func TestCondSignalZeroAllocs(t *testing.T) {
	eng, kern := rig(t, 2)
	mu, cond := guestsync.NewMutex(kern), guestsync.NewCond(kern)
	items := 0
	kern.Spawn("consumer", newCondPair(mu, cond, &items, 5*sim.Microsecond, false), 0)
	kern.Spawn("producer", newCondPair(mu, cond, &items, 100*sim.Microsecond, true), 1)
	kern.Start()
	requireZeroAllocs(t, eng, "cond signal")
	if items != 0 && items != 1 {
		t.Fatalf("%d items left over: the consumer stopped keeping up", items)
	}
	if kern.CPU(0).IdleTime == 0 {
		t.Fatal("the consumer never waited on the condition")
	}
}
