package guestsync

import (
	"slices"

	"repro/internal/guest"
)

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
	spinners []*guest.Task // ticket order in FIFO mode

	pollFn func(t *guest.Task) bool // tryAcquire or ticketReady, bound once

	Acquires    int64
	Contentions int64
}

// NewSpinLock creates a test-and-set spinlock.
func NewSpinLock(kern *guest.Kernel) *SpinLock {
	l := &SpinLock{kern: kern}
	l.pollFn = l.tryAcquire
	return l
}

// NewTicketLock creates a FIFO ticket spinlock.
func NewTicketLock(kern *guest.Kernel) *SpinLock {
	l := &SpinLock{kern: kern, FIFO: true}
	l.pollFn = l.ticketReady
	return l
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
	l.spinners = append(l.spinners, t)
	// TAS spinners re-try the acquire whenever they run; ticket holders
	// wait for Unlock to hand them the lock.
	l.kern.SpinTask(t, l.pollFn, cont)
}

// tryAcquire is the TAS poll: grab the lock if free.
func (l *SpinLock) tryAcquire(t *guest.Task) bool {
	if l.owner != nil {
		return false
	}
	l.owner = t
	t.LocksHeld++
	l.spinners = removeTask(l.spinners, t)
	return true
}

// ticketReady is the ticket poll: the wait ends once Unlock has made t
// the owner.
func (l *SpinLock) ticketReady(t *guest.Task) bool {
	if l.owner != t {
		return false
	}
	t.LocksHeld++
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
		l.spinners = slices.Delete(l.spinners, 0, 1)
		l.owner = next
		l.kern.PollSpinner(next)
		return
	}
	// TAS: poke running spinners; the first poll that runs wins. A
	// preempted spinner retries when its vCPU is scheduled again.
	for _, s := range l.spinners {
		l.kern.PollSpinner(s)
	}
}
