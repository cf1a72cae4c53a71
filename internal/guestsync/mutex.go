// Package guestsync provides the synchronization primitives the
// workload models are built from: a blocking mutex and condition
// variable (pthread-style), blocking and spinning barriers (pthread
// barrier / OpenMP with passive or active wait policy), and test-and-
// set or ticket spinlocks. All primitives operate on simulated guest
// tasks and exhibit the lock-holder- and lock-waiter-preemption
// behaviour the paper studies.
//
// Every primitive binds its spin callbacks once, at construction, and
// reuses its wait lists' storage, so a steady-state lock, wait or wake
// allocates nothing.
package guestsync

import (
	"repro/internal/guest"
)

// Mutex is a blocking (pthread-style) adaptive mutex: contended
// acquirers spin briefly (the kernel's SpinBeforeBlock budget) before
// sleeping on a FIFO wait queue; unlock hands off to the first sleeper
// or frees the lock for the spinners to race.
type Mutex struct {
	kern     *guest.Kernel
	owner    *guest.Task
	waiters  waitList[mutexWaiter]
	spinners []*guest.Task

	// Spin callbacks bound once: the holder report for blame
	// attribution, the acquisition poll and the budget fallback.
	ownerFn       func() *guest.Task
	tryAcquireFn  func(t *guest.Task) bool
	spinTimeoutFn func(t *guest.Task, cont func())

	// Contentions counts lock attempts that had to wait.
	Contentions int64
	Acquires    int64
}

type mutexWaiter struct {
	t    *guest.Task
	cont func()
}

// NewMutex creates a mutex for tasks of kern.
func NewMutex(kern *guest.Kernel) *Mutex {
	m := &Mutex{kern: kern}
	m.ownerFn = func() *guest.Task { return m.owner }
	m.tryAcquireFn = m.tryAcquire
	m.spinTimeoutFn = m.spinTimeout
	return m
}

// Lock acquires m for t, invoking cont once the lock is held. Must be
// called from task context. Contended callers spin briefly, then block.
func (m *Mutex) Lock(t *guest.Task, cont func()) {
	m.Acquires++
	if m.owner == nil && m.waiters.len() == 0 {
		m.owner = t
		t.LocksHeld++
		cont()
		return
	}
	m.Contentions++
	budget := m.kern.Config().SpinBeforeBlock
	if budget <= 0 {
		m.sleepLock(t, cont)
		return
	}
	m.spinners = append(m.spinners, t)
	// Let blame attribution see who we are spinning on: LHP when the
	// holder is itself off-CPU, plain contention otherwise.
	t.SetSpinHolder(m.ownerFn)
	m.kern.SpinTaskBounded(t, budget, m.tryAcquireFn, cont, m.spinTimeoutFn)
}

// spinTimeout is the adaptive spin's fallback: stop spinning and sleep.
func (m *Mutex) spinTimeout(t *guest.Task, cont func()) {
	m.spinners = removeTask(m.spinners, t)
	m.sleepLock(t, cont)
}

func (m *Mutex) sleepLock(t *guest.Task, cont func()) {
	m.waiters.push(mutexWaiter{t: t, cont: cont})
	m.kern.BlockTask(t)
}

func (m *Mutex) tryAcquire(t *guest.Task) bool {
	// Sleepers have handoff priority; spinners only grab a truly free
	// lock.
	if m.owner != nil || m.waiters.len() > 0 {
		return false
	}
	m.owner = t
	t.LocksHeld++
	m.spinners = removeTask(m.spinners, t)
	return true
}

// Unlock releases m, handing ownership to the first sleeping waiter
// (woken through wakeup balancing) or letting active spinners race.
func (m *Mutex) Unlock(t *guest.Task) {
	if m.owner != t {
		panic("guestsync: unlock of mutex not held by " + t.Name)
	}
	t.LocksHeld--
	if m.waiters.len() > 0 {
		w := m.waiters.pop()
		m.owner = w.t
		w.t.LocksHeld++
		m.kern.WakeTask(w.t, w.cont)
		return
	}
	m.owner = nil
	for _, s := range m.spinners {
		m.kern.PollSpinner(s)
	}
}

// Cond is a pthread-style condition variable used with a Mutex.
type Cond struct {
	kern    *guest.Kernel
	waiters waitList[*condWaiter]
	free    []*condWaiter
}

// condWaiter is one task blocked in Cond.Wait. Its relock callback,
// bound once per record, re-acquires the mutex when the task is woken;
// records return to their Cond's free list as they fire, so a wait
// allocates nothing in steady state.
type condWaiter struct {
	c      *Cond
	t      *guest.Task
	m      *Mutex
	cont   func()
	relock func()
}

func (w *condWaiter) fire() {
	t, m, cont := w.t, w.m, w.cont
	w.t, w.m, w.cont = nil, nil, nil
	w.c.free = append(w.c.free, w)
	m.Lock(t, cont)
}

// NewCond creates a condition variable for tasks of kern.
func NewCond(kern *guest.Kernel) *Cond {
	return &Cond{kern: kern}
}

// Wait atomically releases m and blocks t; once signalled, the lock is
// re-acquired before cont runs.
func (c *Cond) Wait(t *guest.Task, m *Mutex, cont func()) {
	var w *condWaiter
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		w = &condWaiter{c: c}
		w.relock = w.fire
	}
	w.t, w.m, w.cont = t, m, cont
	c.waiters.push(w)
	m.Unlock(t)
	m.kern.BlockTask(t)
}

// Signal wakes one waiter.
func (c *Cond) Signal() {
	if c.waiters.len() == 0 {
		return
	}
	w := c.waiters.pop()
	c.kern.WakeTask(w.t, w.relock)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	ws := c.waiters.take()
	for _, w := range ws {
		c.kern.WakeTask(w.t, w.relock)
	}
	c.waiters.recycle(ws)
}
