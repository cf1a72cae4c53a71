package guest

import "repro/internal/sim"

// Busy-wait support. A spinning task stays "running" in the guest and
// burns CPU on its vCPU until the wait is granted (explicitly, e.g. a
// ticket handoff) or its poll succeeds (test-and-set style). Spinning
// is visible to the hypervisor's PLE detector via SpinBegin/SpinEnd.

const spinGrantCost = 1 * sim.Microsecond

// SpinTask puts the current task into a busy-wait. poll, if non-nil, is
// re-evaluated with the spinner whenever it (re)gains the CPU and should
// attempt the acquisition, returning success. resume runs once the wait
// ends. Must be called from task context.
func (k *Kernel) SpinTask(t *Task, poll func(t *Task) bool, resume func()) {
	k.SpinTaskBounded(t, 0, poll, resume, nil)
}

// SpinTaskBounded is SpinTask with a CPU-time budget: once the task has
// burned budget of actual spinning, onTimeout(t, resume) runs in task
// context (typically putting the task to sleep with resume as its
// wakeup continuation). budget 0 spins forever. The wait lives in a
// record inside t, so a spin allocates nothing.
func (k *Kernel) SpinTaskBounded(t *Task, budget sim.Time, poll func(t *Task) bool, resume func(), onTimeout func(t *Task, resume func())) {
	c := t.cpu
	if c.cur != t {
		panic("guest: SpinTask on non-current task " + t.Name)
	}
	t.spinGen++
	t.spinRec = spinWait{poll: poll, resume: resume, budget: budget, onTimeout: onTimeout}
	t.spin = &t.spinRec
	t.WaitingLock = true
	k.spinWaits++
	if c.running && !c.executing {
		c.startCur()
	}
}

// GrantSpin ends t's busy-wait (direct handoff). The spinner proceeds
// the next time it physically executes; if it is executing right now it
// proceeds immediately.
func (k *Kernel) GrantSpin(t *Task) {
	if t.spin == nil {
		return
	}
	t.spin.granted = true
	k.resumeSpinner(t)
}

// PollSpinner nudges an actively executing spinner to re-run its poll
// (a lock became free).
func (k *Kernel) PollSpinner(t *Task) {
	if t.spin == nil || t.spin.poll == nil {
		return
	}
	k.resumeSpinner(t)
}

// resumeSpinner re-enters startCur on the spinner's CPU so the grant or
// poll is consumed there.
func (k *Kernel) resumeSpinner(t *Task) {
	c := t.cpu
	if c.cur != t || !c.running {
		return // consumed when the task next runs
	}
	if c.executing {
		c.bankCur()
		c.execGen++
	}
	c.execAfter(spinGrantCost, c.startCurFn)
}
