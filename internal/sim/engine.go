package sim

import (
	"errors"
	"fmt"
)

// ErrDeadlock is returned by Run when the event queue drains before the
// requested horizon. A simulation with periodic timers should never go
// quiet, so an empty queue usually means every actor blocked.
var ErrDeadlock = errors.New("sim: event queue empty before horizon")

// Engine is a single-threaded discrete-event simulation loop.
// The zero value is not usable; call NewEngine.
//
// Fired one-shot and cancelled events are recycled through a free list,
// so a steady-state simulation schedules events without allocating.
// Recycling is safe because user code holds generation-stamped EventRef
// handles: a handle goes stale the moment its event fires or is
// cancelled, and stale handles are ignored even after the underlying
// object has been reused.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	stopped bool
	fired   uint64
	free    []*Event // recycled Event objects

	// OnViolation, when set, receives scheduling-contract violations
	// (scheduling in the past, non-positive periods) instead of the
	// engine panicking mid-run. The engine then degrades safely: a
	// past-time event is clamped to now, a non-positive period
	// schedules nothing. Chaos runs attach an invariant checker here so
	// fault sweeps report which contract broke rather than crashing.
	// Violation details are formatted only on the violation path; the
	// happy path does no fmt work.
	OnViolation func(name, detail string)
}

// NewEngine returns an engine with an empty queue at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events dispatched so far (for diagnostics).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of queued events (for diagnostics).
func (e *Engine) Pending() int { return e.queue.len() }

// alloc takes an Event from the free list, or heap-allocates the first
// time a slot is needed.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// release invalidates every outstanding handle to ev and returns the
// object to the free list.
func (e *Engine) release(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.period = 0
	e.free = append(e.free, ev)
}

// At schedules fn at absolute time t. Scheduling in the past is a
// programming error: it would silently corrupt causality. Without an
// OnViolation hook it panics; with one it reports the violation and
// clamps the event to now.
func (e *Engine) At(t Time, fn func()) EventRef {
	if t < e.now {
		t = e.schedulePastViolation(t)
	}
	ev := e.alloc()
	ev.at = t
	ev.fn = fn
	ev.seq = e.seq
	e.seq++
	e.queue.push(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// schedulePastViolation is the cold path of At: it formats the detail
// string only once a violation actually happened, keeping all fmt work
// off the scheduling fast path.
//
//go:noinline
func (e *Engine) schedulePastViolation(t Time) Time {
	detail := fmt.Sprintf("scheduling at %v before now %v", t, e.now)
	if e.OnViolation == nil {
		panic("sim: " + detail)
	}
	e.OnViolation("schedule-in-past", detail)
	return e.now
}

// After schedules fn after delay d from now.
func (e *Engine) After(d Time, fn func()) EventRef {
	return e.At(e.now+d, fn)
}

// Every schedules fn to run every period d, first firing after d.
// A non-positive period panics, or — when an OnViolation hook is set —
// reports the violation and schedules nothing (returns a zero EventRef,
// which Cancel accepts).
func (e *Engine) Every(d Time, fn func()) EventRef {
	if d <= 0 {
		e.nonPositivePeriodViolation(d)
		return EventRef{}
	}
	r := e.After(d, fn)
	r.ev.period = d
	return r
}

//go:noinline
func (e *Engine) nonPositivePeriodViolation(d Time) {
	detail := fmt.Sprintf("non-positive period %v at %v", d, e.now)
	if e.OnViolation == nil {
		panic("sim: " + detail)
	}
	e.OnViolation("non-positive-period", detail)
}

// Cancel removes the referenced event from the queue and recycles it.
// It is safe to cancel a zero, already fired, or already cancelled
// handle.
//
// The generation stamp alone decides: a handle whose gen matches is
// always queued, because no user code runs while an event is off the
// queue. Step releases a one-shot (bumping gen) and re-arms a periodic
// event before it calls the callback.
func (e *Engine) Cancel(r EventRef) {
	ev := r.ev
	if ev == nil || ev.gen != r.gen {
		return
	}
	e.queue.remove(ev)
	e.release(ev)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step dispatches the single next event. It reports false when the queue
// is empty.
func (e *Engine) Step() bool {
	ev := e.queue.pop()
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.fired++
	fn := ev.fn
	if ev.period > 0 {
		// Re-arm the same object (same generation) before firing so the
		// callback, or a later caller holding the handle, can still
		// Cancel it.
		ev.at += ev.period
		ev.seq = e.seq
		e.seq++
		e.queue.push(ev)
	} else {
		// One-shot: every handle goes stale now; the object is free for
		// reuse by whatever fn schedules next.
		e.release(ev)
	}
	fn()
	return true
}

// Run dispatches events until the horizon is reached, Stop is called, or
// the queue drains. When the queue drains early it returns ErrDeadlock.
func (e *Engine) Run(horizon Time) error {
	e.stopped = false
	for !e.stopped {
		next := e.queue.min()
		if next == nil {
			return fmt.Errorf("%w at %v (horizon %v)", ErrDeadlock, e.now, horizon)
		}
		if next.at > horizon {
			e.now = horizon
			return nil
		}
		e.Step()
	}
	return nil
}

// RunWindow dispatches every event at or before end and advances the
// clock to exactly end. Unlike Run, an empty queue is not a deadlock:
// a sharded host engine may simply be idle for a window (the sharded
// coordinator decides when the whole simulation has gone quiet).
func (e *Engine) RunWindow(end Time) {
	for {
		next := e.queue.min()
		if next == nil || next.at > end {
			break
		}
		e.Step()
	}
	e.now = end
}

// NextAt returns the due time of the earliest pending event, or false
// for an empty queue. The sharded coordinator uses it to tell an
// active window (events to dispatch) from an idle one (clock advance
// only).
func (e *Engine) NextAt() (Time, bool) {
	if next := e.queue.min(); next != nil {
		return next.at, true
	}
	return 0, false
}

// SkipTo advances the clock to end without dispatching — the
// empty-window fast path of RunWindow. The caller must know no event
// is due at or before end (see NextAt).
func (e *Engine) SkipTo(end Time) {
	if end > e.now {
		e.now = end
	}
}
