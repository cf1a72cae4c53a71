package guestsync

import "repro/internal/guest"

// SpinLock is a busy-waiting lock. In TAS mode (default) the lock is a
// test-and-set loop: whichever actively-running spinner notices the
// release first wins, and preempted spinners simply retry when they run
// again. In FIFO (ticket) mode ownership is handed to the next ticket
// holder even if its vCPU is preempted — the acquisition-order
// guarantee that makes ticket locks so vulnerable to lock-waiter
// preemption (§1, [24]).
type SpinLock struct {
	kern *guest.Kernel
	// FIFO selects ticket-lock semantics.
	FIFO bool

	owner    *guest.Task
	spinners []spinEntry

	Acquires    int64
	Contentions int64
}

type spinEntry struct {
	t    *guest.Task
	cont func()
}

// NewSpinLock creates a test-and-set spinlock.
func NewSpinLock(kern *guest.Kernel) *SpinLock {
	return &SpinLock{kern: kern}
}

// NewTicketLock creates a FIFO ticket spinlock.
func NewTicketLock(kern *guest.Kernel) *SpinLock {
	return &SpinLock{kern: kern, FIFO: true}
}

// Lock acquires l for t, spinning while contended; cont runs once held.
func (l *SpinLock) Lock(t *guest.Task, cont func()) {
	l.Acquires++
	if l.owner == nil && len(l.spinners) == 0 {
		l.owner = t
		t.LocksHeld++
		cont()
		return
	}
	l.Contentions++
	l.spinners = append(l.spinners, spinEntry{t: t, cont: cont})
	if l.FIFO {
		// Ticket holders wait for an explicit handoff.
		l.kern.SpinTask(t, nil, func() {
			t.LocksHeld++
			cont()
		})
		return
	}
	// TAS: re-try the acquire whenever the spinner runs.
	l.kern.SpinTask(t, func() bool { return l.tryAcquire(t) }, func() {
		cont()
	})
}

// tryAcquire is the TAS poll: grab the lock if free.
func (l *SpinLock) tryAcquire(t *guest.Task) bool {
	if l.owner != nil {
		return false
	}
	l.owner = t
	t.LocksHeld++
	l.removeSpinner(t)
	return true
}

// Unlock releases l. Ticket locks hand off to the next ticket; TAS
// locks nudge actively running spinners to race for the acquire.
func (l *SpinLock) Unlock(t *guest.Task) {
	if l.owner != t {
		panic("guestsync: unlock of spinlock not held by " + t.Name)
	}
	t.LocksHeld--
	l.owner = nil
	if len(l.spinners) == 0 {
		return
	}
	if l.FIFO {
		next := l.spinners[0]
		l.spinners = l.spinners[1:]
		l.owner = next.t
		l.kern.GrantSpin(next.t)
		return
	}
	// TAS: poke running spinners; the first poll that runs wins. A
	// preempted spinner retries when its vCPU is scheduled again.
	for _, e := range l.spinners {
		l.kern.PollSpinner(e.t)
	}
}

func (l *SpinLock) removeSpinner(t *guest.Task) {
	for i, e := range l.spinners {
		if e.t == t {
			l.spinners = append(l.spinners[:i], l.spinners[i+1:]...)
			return
		}
	}
}
