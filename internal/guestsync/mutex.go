// Package guestsync provides the synchronization primitives the
// workload models are built from: a blocking mutex and condition
// variable (pthread-style), blocking and spinning barriers (pthread
// barrier / OpenMP with passive or active wait policy), and test-and-
// set or ticket spinlocks. All primitives operate on simulated guest
// tasks and exhibit the lock-holder- and lock-waiter-preemption
// behaviour the paper studies.
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
	waiters  []mutexWaiter
	spinners []*guest.Task

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
	return &Mutex{kern: kern}
}

// Lock acquires m for t, invoking cont once the lock is held. Must be
// called from task context. Contended callers spin briefly, then block.
func (m *Mutex) Lock(t *guest.Task, cont func()) {
	m.Acquires++
	if m.owner == nil && len(m.waiters) == 0 {
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
	t.SetSpinHolder(func() *guest.Task { return m.owner })
	m.kern.SpinTaskBounded(t, budget,
		func() bool { return m.tryAcquire(t) },
		cont,
		func() {
			m.removeSpinner(t)
			m.sleepLock(t, cont)
		})
}

func (m *Mutex) sleepLock(t *guest.Task, cont func()) {
	m.waiters = append(m.waiters, mutexWaiter{t: t, cont: cont})
	m.kern.BlockTask(t)
}

func (m *Mutex) tryAcquire(t *guest.Task) bool {
	// Sleepers have handoff priority; spinners only grab a truly free
	// lock.
	if m.owner != nil || len(m.waiters) > 0 {
		return false
	}
	m.owner = t
	t.LocksHeld++
	m.removeSpinner(t)
	return true
}

func (m *Mutex) removeSpinner(t *guest.Task) {
	for i, s := range m.spinners {
		if s == t {
			m.spinners = append(m.spinners[:i], m.spinners[i+1:]...)
			return
		}
	}
}

// Unlock releases m, handing ownership to the first sleeping waiter
// (woken through wakeup balancing) or letting active spinners race.
func (m *Mutex) Unlock(t *guest.Task) {
	if m.owner != t {
		panic("guestsync: unlock of mutex not held by " + t.Name)
	}
	t.LocksHeld--
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
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
	waiters []mutexWaiter
}

// NewCond creates a condition variable for tasks of kern.
func NewCond(kern *guest.Kernel) *Cond {
	return &Cond{kern: kern}
}

// Wait atomically releases m and blocks t; once signalled, the lock is
// re-acquired before cont runs.
func (c *Cond) Wait(t *guest.Task, m *Mutex, cont func()) {
	c.waiters = append(c.waiters, mutexWaiter{t: t, cont: func() {
		m.Lock(t, cont)
	}})
	m.Unlock(t)
	m.kern.BlockTask(t)
}

// Signal wakes one waiter.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	c.kern.WakeTask(w.t, w.cont)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		c.kern.WakeTask(w.t, w.cont)
	}
}
