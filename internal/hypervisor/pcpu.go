package hypervisor

import "repro/internal/sim"

// PCPU is one physical CPU. Each pCPU has its own runqueue of vCPUs,
// ordered by priority class (BOOST, UNDER, OVER) and FIFO within a
// class, exactly like Xen's credit scheduler.
type PCPU struct {
	ID      int
	hv      *Hypervisor
	name    string
	current *VCPU
	runq    []*VCPU

	sliceEnd sim.EventRef // end of the current 30 ms timeslice

	// sliceFn (timeslice expiry) and ratelimitFn (the deferred wakeup
	// preemption check) are bound once at construction: both re-arm on
	// every context switch or boosted wakeup, where a fresh closure per
	// schedule would allocate on an otherwise allocation-free path.
	sliceFn     func()
	ratelimitFn func()

	// saWait is set while the pCPU stalls a preemption waiting for the
	// guest to acknowledge a scheduler activation.
	saWait bool

	idleSince sim.Time
	idleTotal sim.Time

	// loadSnapshot is the runnable-count view the balancer exposes to
	// wake placement. It refreshes only at ticks, so near-simultaneous
	// wakeups herd toward the same "least loaded" pCPU — the staleness
	// that produces CPU stacking (§5.6).
	loadSnapshot int

	switches int64
}

// snapshotLoad refreshes the stale load view.
func (p *PCPU) snapshotLoad() {
	p.loadSnapshot = p.QueueLen()
	if p.current != nil {
		p.loadSnapshot++
	}
}

// Name returns a short identifier such as "p3".
func (p *PCPU) Name() string { return p.name }

// Current returns the vCPU executing on this pCPU, or nil when idle.
func (p *PCPU) Current() *VCPU { return p.current }

// QueueLen returns the number of queued (not running) vCPUs.
func (p *PCPU) QueueLen() int { return len(p.runq) }

// Switches reports the number of context switches performed.
func (p *PCPU) Switches() int64 { return p.switches }

// IdleTime reports the cumulative idle time of the pCPU.
func (p *PCPU) IdleTime() sim.Time {
	t := p.idleTotal
	if p.current == nil {
		t += p.hv.eng.Now() - p.idleSince
	}
	return t
}

// enqueue inserts v into the runqueue respecting priority classes.
// Within a class vCPUs queue FIFO; a yielding vCPU goes behind all
// vCPUs of its own class regardless (yieldHint), matching Xen's
// SCHED_YIELD handling.
func (p *PCPU) enqueue(v *VCPU) {
	pos := len(p.runq)
	for i, q := range p.runq {
		if effectivePrio(v) < effectivePrio(q) {
			pos = i
			break
		}
	}
	p.runq = append(p.runq, nil)
	copy(p.runq[pos+1:], p.runq[pos:])
	p.runq[pos] = v
	v.yieldHint = false
}

// effectivePrio maps a vCPU to its queueing class. A yield hint demotes
// the vCPU behind its own class by treating it as slightly lower
// priority for insertion ordering.
func effectivePrio(v *VCPU) int {
	pr := int(v.prio) * 2
	if v.yieldHint {
		pr++
	}
	return pr
}

// dequeue removes v from the runqueue. It reports whether v was queued.
func (p *PCPU) dequeue(v *VCPU) bool {
	for i, q := range p.runq {
		if q == v {
			p.runq = append(p.runq[:i], p.runq[i+1:]...)
			return true
		}
	}
	return false
}

// peek returns the head of the runqueue without removing it, skipping
// vCPUs parked by relaxed co-scheduling.
func (p *PCPU) peek(now sim.Time) *VCPU {
	for _, q := range p.runq {
		if q.parkedUntil <= now {
			return q
		}
	}
	return nil
}

// pop removes and returns the first schedulable vCPU.
func (p *PCPU) pop(now sim.Time) *VCPU {
	for i, q := range p.runq {
		if q.parkedUntil <= now {
			p.runq = append(p.runq[:i], p.runq[i+1:]...)
			return q
		}
	}
	return nil
}
