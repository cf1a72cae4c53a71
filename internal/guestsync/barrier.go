package guestsync

import "repro/internal/guest"

// Barrier is a pthread-style blocking barrier for n tasks: arrivals
// spin briefly (futex pre-sleep spinning), then sleep until the last
// task arrives and wakes everyone. Blocked waiters idle their vCPUs —
// the deceptive-idleness behaviour behind Figure 2 and the CPU-stacking
// results (§5.6).
type Barrier struct {
	kern     *guest.Kernel
	n        int
	arrivals int
	sleepers waitList[mutexWaiter]
	spinners waitList[*guest.Task]

	spinTimeoutFn func(t *guest.Task, cont func()) // bound once

	// Generations counts completed barrier episodes.
	Generations int64
}

// NewBarrier creates a blocking barrier for n tasks.
func NewBarrier(kern *guest.Kernel, n int) *Barrier {
	if n <= 0 {
		panic("guestsync: barrier size must be positive")
	}
	b := &Barrier{kern: kern, n: n}
	b.spinTimeoutFn = b.spinTimeout
	return b
}

// N returns the party size.
func (b *Barrier) N() int { return b.n }

// Wait joins the barrier; cont runs once all n tasks have arrived. The
// last arriver proceeds directly and releases the waiters.
func (b *Barrier) Wait(t *guest.Task, cont func()) {
	b.arrivals++
	if b.arrivals == b.n {
		b.arrivals = 0
		b.Generations++
		sleepers, spinners := b.sleepers.take(), b.spinners.take()
		for _, w := range sleepers {
			b.kern.WakeTask(w.t, w.cont)
		}
		for _, s := range spinners {
			b.kern.GrantSpin(s)
		}
		b.sleepers.recycle(sleepers)
		b.spinners.recycle(spinners)
		cont()
		return
	}
	budget := b.kern.Config().SpinBeforeBlock
	if budget <= 0 {
		b.sleepers.push(mutexWaiter{t: t, cont: cont})
		b.kern.BlockTask(t)
		return
	}
	b.spinners.push(t)
	b.kern.SpinTaskBounded(t, budget, nil, cont, b.spinTimeoutFn)
}

// spinTimeout is the pre-sleep spin's fallback: stop spinning and sleep
// until the generation completes.
func (b *Barrier) spinTimeout(t *guest.Task, cont func()) {
	b.spinners.items = removeTask(b.spinners.items, t)
	b.sleepers.push(mutexWaiter{t: t, cont: cont})
	b.kern.BlockTask(t)
}

// SpinBarrier is an OpenMP-style barrier with an active wait policy:
// arrivals busy-wait (burning vCPU cycles, visible to PLE) until the
// last task arrives and releases the generation.
type SpinBarrier struct {
	kern     *guest.Kernel
	n        int
	waiting  waitList[*guest.Task]
	arrivals int

	Generations int64
}

// NewSpinBarrier creates a spinning barrier for n tasks.
func NewSpinBarrier(kern *guest.Kernel, n int) *SpinBarrier {
	if n <= 0 {
		panic("guestsync: barrier size must be positive")
	}
	return &SpinBarrier{kern: kern, n: n}
}

// N returns the party size.
func (b *SpinBarrier) N() int { return b.n }

// Wait joins the barrier; cont runs once all n tasks have arrived.
// Non-last arrivals spin.
func (b *SpinBarrier) Wait(t *guest.Task, cont func()) {
	b.arrivals++
	if b.arrivals < b.n {
		b.waiting.push(t)
		b.kern.SpinTask(t, nil, cont)
		return
	}
	// Last arriver: release the generation.
	b.arrivals = 0
	b.Generations++
	ws := b.waiting.take()
	for _, w := range ws {
		b.kern.GrantSpin(w)
	}
	b.waiting.recycle(ws)
	cont()
}
