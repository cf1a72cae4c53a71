package guest

import (
	"repro/internal/hypervisor"
	"repro/internal/span"
)

// Span instrumentation. The guest kernel is the one layer that sees
// both sides of the semantic gap — the task's scheduling state and the
// backing vCPU's hypervisor runstate — so the blame category of a
// request lives here: spanCategory is re-evaluated at every guest task
// transition (dispatch, preemption, block/wake, spin, migration) and,
// via a per-vCPU observer, at every hypervisor runstate or SA-handshake
// transition underneath the request.
//
// The instrumentation is pay-as-you-go: tasks carry a nil span pointer
// until a workload binds a request, and the vCPU observers are only
// registered once the first span attaches to a kernel, so untraced
// runs pay a nil-check per hook and nothing per vCPU transition.

// Spans returns the tracer configured for this kernel (nil when span
// tracing is off). Workloads mint request spans from it.
func (k *Kernel) Spans() *span.Tracer { return k.cfg.Spans }

// AttachSpan binds a request span to t: until DetachSpan, every
// scheduling transition of t (and of the vCPU under it) re-blames the
// span. The first attachment registers the vCPU observers.
func (k *Kernel) AttachSpan(t *Task, sp *span.Span) {
	if sp == nil {
		return
	}
	k.ensureSpanObservers()
	t.span = sp
	k.spanSync(t)
}

// DetachSpan unbinds and returns t's span (nil if none).
func (k *Kernel) DetachSpan(t *Task) *span.Span {
	sp := t.span
	t.span = nil
	return sp
}

// ensureSpanObservers registers the per-vCPU transition observers,
// once.
func (k *Kernel) ensureSpanObservers() {
	if k.spanObs {
		return
	}
	k.spanObs = true
	for _, c := range k.cpus {
		c.vcpu.SetObserver(c.spanSyncAll)
	}
}

// spanSyncAll re-blames every span-carrying task whose category can
// depend on this vCPU's state: the current task and the ready queue.
// (Blocked and migrating tasks have vCPU-independent categories.)
func (c *CPU) spanSyncAll() {
	if c.cur != nil {
		c.kern.spanSync(c.cur)
	}
	for _, t := range c.rq.Tasks() {
		c.kern.spanSync(t)
	}
}

// spanSync transitions t's span (if any) to the category implied by
// the current task + vCPU state.
func (k *Kernel) spanSync(t *Task) {
	if t.span == nil {
		return
	}
	t.span.Transition(k.eng.Now(), k.spanCategory(t))
}

// spanCategory is the blame decision function (see the package comment
// of internal/span for the taxonomy).
func (k *Kernel) spanCategory(t *Task) span.Category {
	switch t.state {
	case TaskBlocked:
		return span.CatBlocked
	case TaskMigrating:
		return span.CatTaskMigr
	case TaskReady:
		if t.cpu != nil && t.cpu.vcpu.State() == hypervisor.StateRunnable {
			// Queued behind a preempted vCPU: the wait is steal, not CFS.
			return span.CatPreemptWait
		}
		return span.CatRunqWait
	case TaskRunning:
		c := t.cpu
		switch {
		case c == nil || c.cur != t:
			return span.CatOther
		case c.vcpu.State() != hypervisor.StateRunning:
			// The guest believes the task runs; the hypervisor knows the
			// vCPU does not — the semantic gap itself.
			return span.CatPreemptWait
		case c.vcpu.SAPending():
			return span.CatSAWait
		case !c.executing:
			return span.CatKernel
		case t.spin != nil:
			if h := t.spinHolder; h != nil {
				if holder := h(); holder != nil && !holderRunning(holder) {
					return span.CatLHPSpin
				}
			}
			return span.CatSpin
		default:
			return span.CatService
		}
	}
	return span.CatOther
}

// holderRunning reports whether a lock holder is actually making
// progress: current on its CPU with the backing vCPU executing.
// Anything else — holder preempted at guest level, or its vCPU stolen
// by the hypervisor — makes waiting for it lock-holder-preemption
// blame.
func holderRunning(h *Task) bool {
	return h.state == TaskRunning && h.cpu != nil && h.cpu.cur == h &&
		h.cpu.vcpu.State() == hypervisor.StateRunning
}
