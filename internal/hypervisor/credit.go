package hypervisor

import (
	"repro/internal/decision"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file implements the credit scheduler proper: dispatch,
// preemption (including the IRS scheduler-activation handshake), credit
// accounting, wakeup boosting, and vCPU placement.

const (
	creditsPerTick = 100
	creditFloor    = -300
	creditCap      = 300
)

// tick runs every CreditTick on each pCPU: it burns the running vCPU's
// credits and preempts it when it has gone OVER while higher-priority
// vCPUs wait.
func (h *Hypervisor) tick(p *PCPU) {
	p.snapshotLoad()
	if h.cfg.Strategy == StrategyRelaxedCo {
		h.coUnparkScan(p)
	}
	v := p.current
	if v == nil {
		return
	}
	if h.cfg.ExactAccounting {
		// Exact-accounting defense: settle the credits owed for actual
		// runtime instead of sampling. The cumulative-owed formulation
		// makes double-charging at tick edges impossible: a vCPU
		// dispatched mid-tick owes only for the fraction it ran.
		h.debitExact(v)
	} else {
		// Tick-sampled credit debiting, as in Xen credit1: whoever runs
		// when the tick fires pays a full tick's credits, regardless of
		// how long it has actually run. The resulting misattribution on
		// contended pCPUs (a vCPU whose dispatch aligns with tick edges
		// can pay for time it never used) is a faithful reproduction of
		// credit1's documented sampling unfairness — one ingredient of
		// the below-fair-share starvation the paper measures, and the
		// channel tick-evasion attacks steal through (a vCPU that is
		// never on-CPU at sampling instants is never charged at all).
		v.credits -= creditsPerTick
		if v.credits < creditFloor {
			v.credits = creditFloor
		}
		v.VM.CreditsDebited += creditsPerTick
	}
	v.accActive = true
	// csched_vcpu_acct: after a full accounting period of *runtime*
	// (not wall time) the running vCPU re-evaluates its placement.
	// Stacked vCPUs accrue runtime slowly, so they re-pick rarely —
	// which is why stacking persists (§5.6).
	if h.cfg.LoadBalance {
		v.acctRun += CreditTick
		if v.acctRun >= accountPeriod {
			v.acctRun = 0
			h.repickVCPU(p, v)
			if p.current != v {
				return
			}
		}
	}
	// BOOST is transient: it expires at the first tick, after which the
	// priority reflects the credit balance again (Xen csched_tick).
	if v.prio == PrioBoost || (v.credits <= 0 && v.prio == PrioUnder) {
		v.prio = prioForCredits(v.credits)
	}
	// A tick never interrupts an SA handshake; it resolves within
	// microseconds anyway. Under strict co-scheduling the gang rotation
	// owns all preemption decisions.
	if p.saWait || h.cfg.Strategy == StrategyStrictCo {
		return
	}
	if next := p.peek(h.eng.Now()); next != nil && next.prio < v.prio {
		h.preempt(p)
	}
}

// account runs every accountPeriod: it refills credits
// proportionally to VM weight and lets the relaxed co-scheduler examine
// execution skew.
func (h *Hypervisor) account() {
	// Total weight of VMs with at least one non-blocked vCPU.
	totalWeight := 0
	for _, vm := range h.vms {
		if vmActive(vm) {
			totalWeight += vm.Weight
		}
	}
	if totalWeight > 0 {
		// Credits available per period: one tick's worth per pCPU per
		// tick interval, i.e. capacity of the whole machine.
		total := int(int64(len(h.pcpus)) * int64(accountPeriod/CreditTick) * creditsPerTick)
		for _, vm := range h.vms {
			if !vmActive(vm) {
				continue
			}
			active := activeVCPUs(vm)
			if active == 0 {
				continue
			}
			share := total * vm.Weight / totalWeight / active
			for _, v := range vm.VCPUs {
				eligible := v.state == StateRunning || v.state == StateRunnable || v.accActive
				v.accActive = false
				if v.state == StateOffline || !eligible || v.parkedUntil > h.eng.Now() {
					// Going inactive resets a negative balance, as in
					// csched_vcpu_acct_stop: a vCPU that idled through
					// an accounting window wakes at UNDER (and is thus
					// BOOST-eligible), instead of paying down debt from
					// a previous busy phase.
					if v.state == StateBlocked && v.credits < 0 {
						v.credits = 0
						v.prio = PrioUnder
					}
					continue
				}
				v.credits += share
				vm.creditsGranted += int64(share)
				if v.credits > creditCap {
					v.credits = creditCap
				}
				if v.credits > 0 && v.prio == PrioOver {
					v.prio = PrioUnder
				}
			}
		}
	}

	if h.cfg.Strategy == StrategyRelaxedCo {
		h.relaxedCoAccount()
	}
}

// debitExact settles v's credit debt under exact accounting: the
// credits owed grow with cumulative runtime (creditsPerTick per
// CreditTick of execution, integer-floored), and each settlement charges
// only the still-unpaid difference. Called at every tick for the
// running vCPU and at every deschedule, so no run interval escapes
// charging and none is charged twice. Any vCPU that accrues a charge is
// also marked active for the accounting window: activity, like debiting,
// must come from runstates, or a tick-evader is "forgiven" its debt at
// each account instant as if it had idled through the window.
func (h *Hypervisor) debitExact(v *VCPU) {
	owed := int64(v.RunTime()) * creditsPerTick / int64(CreditTick)
	delta := owed - v.debited
	if delta <= 0 {
		return
	}
	v.debited = owed
	v.accActive = true
	v.credits -= int(delta)
	if v.credits < creditFloor {
		v.credits = creditFloor
	}
	// Priority must track the balance at settlement too: vanilla credit1
	// only demotes the vCPU sampled by the tick, so a vCPU that is never
	// on-CPU at sampling instants keeps UNDER (and wake-BOOST
	// eligibility) no matter how deep in debt it is.
	if v.credits <= 0 && v.prio != PrioOver {
		v.prio = PrioOver
	}
	v.VM.CreditsDebited += delta
}

func prioForCredits(c int) Priority {
	if c > 0 {
		return PrioUnder
	}
	return PrioOver
}

func vmActive(vm *VM) bool { return activeVCPUs(vm) > 0 }

// activeVCPUs counts vCPUs that want CPU now or consumed CPU during the
// current accounting window (so bursty blockers still earn credits).
// vCPUs parked by relaxed co-scheduling are inactive: they neither
// consume nor receive credits, concentrating the VM's share on the
// laggard.
func activeVCPUs(vm *VM) int {
	now := vm.hv.eng.Now()
	n := 0
	for _, v := range vm.VCPUs {
		if v.parkedUntil > now {
			continue
		}
		if v.state == StateRunning || v.state == StateRunnable || v.accActive {
			n++
		}
	}
	return n
}

// dispatch picks the next vCPU for an idle pCPU.
func (h *Hypervisor) dispatch(p *PCPU) {
	if p.current != nil || p.saWait {
		return
	}
	now := h.eng.Now()
	next := p.pop(now)
	if next == nil && h.cfg.LoadBalance {
		next = h.stealWork(p)
	}
	if next == nil {
		return // stay idle; idleSince already set by deschedule
	}
	h.startRunning(p, next)
}

// startRunning puts v on p and resumes the guest.
func (h *Hypervisor) startRunning(p *PCPU, v *VCPU) {
	now := h.eng.Now()
	if p.current != nil {
		panic("hypervisor: startRunning on busy pCPU " + p.Name())
	}
	if v.state == StateRunnable {
		// Wait between losing (or first wanting) the pCPU and running
		// again: the paper's preemption/scheduling delay (§2.2).
		v.VM.PreemptWait += now - v.stateSince
		v.VM.mPreemptWait.Add(now - v.stateSince)
	}
	p.idleTotal += now - p.idleSince
	p.current = v
	p.switches++
	v.pcpu = p
	v.accActive = true
	v.setState(StateRunning)
	v.sliceStart = now
	v.occSince = now
	p.sliceEnd = h.eng.After(timeslice, p.sliceFn)
	if tl := h.cfg.Trace; tl != nil {
		tl.Switch(now, p.Name(), v.Name(), v.prio.String())
	}
	v.ctx.Resume()
}

// sliceExpired ends the 30 ms quantum: if anyone else wants the pCPU the
// current vCPU is preempted, otherwise it runs another slice.
func (h *Hypervisor) sliceExpired(p *PCPU) {
	v := p.current
	if v == nil {
		return
	}
	if p.saWait {
		return // SA ack (µs away) will re-run scheduling
	}
	if p.peek(h.eng.Now()) == nil {
		// Nothing queued: extend by a fresh slice.
		p.sliceEnd = h.eng.After(timeslice, p.sliceFn)
		return
	}
	h.preempt(p)
}

// checkPreempt is called whenever the runqueue of p gains a vCPU: an
// idle pCPU dispatches; a busy one is preempted only when the newcomer
// outranks the running vCPU (wakeup boost).
func (h *Hypervisor) checkPreempt(p *PCPU) {
	if p.saWait {
		return
	}
	if p.current == nil {
		h.dispatch(p)
		return
	}
	now := h.eng.Now()
	next := p.peek(now)
	if next == nil || next.prio >= p.current.prio {
		return
	}
	// Respect the ratelimit: a vCPU runs at least ratelimit before
	// a boost wakeup may preempt it.
	ran := now - p.current.sliceStart
	if ran < ratelimit {
		h.eng.After(ratelimit-ran, p.ratelimitFn)
		return
	}
	h.preempt(p)
}

// preempt involuntarily removes the running vCPU from p. With the IRS
// strategy and an SA-capable runnable guest, the preemption is delayed
// until the guest acknowledges the scheduler activation (paper Alg. 1).
func (h *Hypervisor) preempt(p *PCPU) {
	v := p.current
	if v == nil || p.saWait {
		return
	}
	if h.cfg.Strategy == StrategyIRS && v.VM.SACapable && !v.saPending {
		if h.saBreakerAllows(v) {
			h.startSA(p, v)
			return
		}
		// Breaker open: the guest repeatedly failed to ack in time, so
		// skip the handshake and preempt plainly (bounded degradation).
		v.VM.saFallbacks++
		if tl := h.cfg.Trace; tl != nil {
			tl.Record(h.eng.Now(), trace.KindSA, v.Name(), "fallback (breaker open)")
		}
	}
	h.deschedule(p, StateRunnable, true)
	h.dispatch(p)
}

// saBreakerAllows reports whether the SA circuit breaker permits
// activating v. With the breaker disabled (SABreakerN == 0) it always
// does. An open breaker re-closes for a single half-open probe once
// per cooldown; the probe either acks (resetting the streak) or
// expires (re-opening the breaker).
func (h *Hypervisor) saBreakerAllows(v *VCPU) bool {
	n := h.cfg.SABreakerN
	if n <= 0 || v.saConsecExpired < n {
		return true
	}
	now := h.eng.Now()
	if h.cfg.SABreakerCooldown > 0 && now-v.saBreakerOpenedAt >= h.cfg.SABreakerCooldown {
		v.saBreakerOpenedAt = now
		return true
	}
	return false
}

// startSA sends VIRQ_SA_UPCALL to the running vCPU and stalls the
// preemption until the guest answers with a sched_op hypercall or the
// hard limit expires.
func (h *Hypervisor) startSA(p *PCPU, v *VCPU) {
	now := h.eng.Now()
	v.saPending = true
	v.saSentAt = now
	p.saWait = true
	v.VM.saSent++
	h.saPendingN++
	v.saPCPU = p
	v.saDeadline = h.eng.After(h.cfg.SALimit, v.saLimitFn)
	v.notifyObserver()
	if tl := h.cfg.Trace; tl != nil {
		tl.Record(now, trace.KindSA, v.Name(), "sent")
	}
	dropped, delays := h.cfg.Faults.SADelivery()
	if dropped {
		// The upcall is lost in flight. The hypervisor still accounts it
		// as sent, so the hard limit fires and preempts regardless — the
		// paper's anti-rogue-guest mechanism doubles as loss recovery.
		if tl := h.cfg.Trace; tl != nil {
			tl.Record(now, trace.KindSA, v.Name(), "dropped (fault)")
		}
		return
	}
	if delays == nil {
		// The vCPU is running, so the interrupt is taken immediately.
		v.ctx.TakeIRQ(IRQSAUpcall)
		return
	}
	for _, d := range delays {
		if d == 0 {
			v.ctx.TakeIRQ(IRQSAUpcall)
			continue
		}
		// Late (or duplicated) delivery only lands while the handshake
		// is still open and the vCPU still executes on its pCPU.
		h.eng.After(d, func() {
			if v.saPending && p.current == v {
				v.ctx.TakeIRQ(IRQSAUpcall)
			}
		})
	}
}

// saExpire fires when a guest failed to acknowledge an SA in time; the
// hypervisor preempts regardless (the anti-rogue-guest hard limit).
// Every expiry is accounted — even if the vCPU already left the pCPU
// through some other path — so sent == acked + expired + pending holds
// under fault injection.
func (h *Hypervisor) saExpire(p *PCPU, v *VCPU) {
	if !v.saPending {
		return
	}
	h.saFail(v)
	if tl := h.cfg.Trace; tl != nil {
		tl.Record(h.eng.Now(), trace.KindSA, v.Name(), "expired")
	}
	if p.current != v {
		return
	}
	p.saWait = false
	h.deschedule(p, StateRunnable, true)
	h.dispatch(p)
}

// saFail closes an open handshake as expired: accounting, breaker
// streak, and pending-flag teardown shared by the hard limit and
// forced teardowns (vCPU blackouts).
func (h *Hypervisor) saFail(v *VCPU) {
	v.VM.saExpired++
	h.saPendingN--
	v.saConsecExpired++
	if n := h.cfg.SABreakerN; n > 0 && v.saConsecExpired == n {
		v.saBreakerOpenedAt = h.eng.Now()
		v.VM.saBreakerOpens++
	}
	h.eng.Cancel(v.saDeadline)
	v.saDeadline = sim.EventRef{}
	v.saPending = false
	v.notifyObserver()
}

// completeSA finishes the SA handshake after the guest's sched_op
// hypercall. disposition is the state requested by the guest.
func (h *Hypervisor) completeSA(v *VCPU, disposition RunState) {
	p := v.pcpu
	v.VM.saAcked++
	h.saPendingN--
	v.saConsecExpired = 0
	delay := h.eng.Now() - v.saSentAt
	h.saDelaySum += delay
	if delay > h.saDelayMax {
		h.saDelayMax = delay
	}
	v.VM.mSAAck.Add(delay)
	h.eng.Cancel(v.saDeadline)
	v.saDeadline = sim.EventRef{}
	v.saPending = false
	v.notifyObserver()
	p.saWait = false
	if tl := h.cfg.Trace; tl != nil {
		tl.SAAcked(h.eng.Now(), v.Name(), delay, disposition.String())
	}
	h.deschedule(p, disposition, false)
	h.dispatch(p)
}

// deschedule takes p.current off the pCPU, accounts LHP/LWP for
// involuntary preemptions, and requeues or blocks the vCPU.
func (h *Hypervisor) deschedule(p *PCPU, disposition RunState, involuntary bool) {
	v := p.current
	if v == nil {
		return
	}
	now := h.eng.Now()
	if involuntary {
		v.preemptions++
		pc := v.ctx.Descheduling()
		switch pc {
		case PreemptLockHolder:
			v.VM.LHPCount++
		case PreemptLockWaiter:
			v.VM.LWPCount++
		}
		if d := h.cfg.Decisions; d.Wants(decision.KindPreempt) {
			h.recordPreempt(d, now, p, v, pc, disposition)
		}
	}
	if h.cfg.ExactAccounting {
		// Settle the run interval ending now; the tick path's
		// cumulative-owed bookkeeping guarantees the overlap with the
		// last tick settlement is not charged again.
		h.debitExact(v)
	}
	v.ctx.Suspend()
	h.eng.Cancel(p.sliceEnd)
	p.sliceEnd = sim.EventRef{}
	h.stopPLEWindow(v)
	if h.occObs != nil {
		if d := now - v.occSince; d > 0 {
			h.occObs(v.VM, p, d)
		}
	}
	p.current = nil
	p.idleSince = now
	v.pcpu = nil
	v.setState(disposition)
	if disposition == StateRunnable {
		target := v.assigned
		if h.cfg.LoadBalance && v.pinned == nil {
			target = p // requeue locally; periodic repick moves it if needed
			v.assigned = p
		}
		target.enqueue(v)
	}
}

// WakeVCPU transitions a blocked vCPU to runnable with BOOST priority
// and places it on a pCPU, possibly preempting.
func (h *Hypervisor) WakeVCPU(v *VCPU) {
	if v.state != StateBlocked {
		return
	}
	v.wakeups++
	v.setState(StateRunnable)
	if v.prio == PrioUnder || v.prio == PrioBoost {
		v.prio = PrioBoost
		v.VM.BoostGrants++
		if d := h.cfg.Decisions; d.Wants(decision.KindBoost) {
			h.recordBoost(d, v)
		}
	}
	p := h.placeVCPU(v)
	if p != v.assigned {
		h.vcpuMigrations++
	}
	v.assigned = p
	p.enqueue(v)
	h.checkPreempt(p)
}

// placeVCPU picks the pCPU for a waking or starting vCPU. Pinned vCPUs
// have no choice. Unpinned placement prefers an idle pCPU, then the
// least-loaded by runnable count, with ties broken toward the lowest ID
// (this deterministic tie-break is what lets deceptive idleness stack
// sibling vCPUs, as in §5.6 of the paper).
func (h *Hypervisor) placeVCPU(v *VCPU) *PCPU {
	if v.pinned != nil {
		return v.pinned
	}
	if !h.cfg.LoadBalance {
		return v.assigned
	}
	var best *PCPU
	bestLoad := 1 << 30
	for _, p := range h.pcpus {
		// Idle pCPUs are visible immediately (idler bitmask); otherwise
		// the placement works from the stale per-tick load snapshot.
		load := p.loadSnapshot
		if p.current == nil && p.QueueLen() == 0 {
			load = 0
		}
		if load < bestLoad {
			best, bestLoad = p, load
		}
	}
	if best == nil {
		return v.assigned
	}
	return best
}

// stealWork lets an idle pCPU pull a runnable vCPU from the longest
// peer runqueue (credit-scheduler work stealing).
func (h *Hypervisor) stealWork(p *PCPU) *VCPU {
	h.stealAttempts++
	now := h.eng.Now()
	var src *PCPU
	for _, q := range h.pcpus {
		if q == p || q.QueueLen() == 0 {
			continue
		}
		if src == nil || q.QueueLen() > src.QueueLen() {
			src = q
		}
	}
	if src == nil {
		return nil
	}
	for i, cand := range src.runq {
		if cand.pinned != nil && cand.pinned != p {
			continue
		}
		if cand.parkedUntil > now {
			continue
		}
		src.runq = append(src.runq[:i], src.runq[i+1:]...)
		cand.assigned = p
		h.vcpuMigrations++
		h.stealMoves++
		return cand
	}
	return nil
}

// repickVCPU re-evaluates the placement of a running vCPU: it migrates
// to a strictly less-loaded pCPU, or — with probability RepickEpsilon —
// to an equally loaded one (the placement noise of a real scheduler).
// Queued vCPUs never re-pick themselves, the asymmetry that lets
// stacked runqueues persist (§5.6).
func (h *Hypervisor) repickVCPU(p *PCPU, v *VCPU) {
	if p.current != v || v.pinned != nil || p.saWait {
		return
	}
	myLoad := p.QueueLen() + 1
	var best *PCPU
	bestLoad := myLoad - 1 // require a strictly better target
	equals := h.repickScratch[:0]
	for _, q := range h.pcpus {
		if q == p {
			continue
		}
		load := q.QueueLen() + btoi(q.current != nil)
		if load < bestLoad {
			best, bestLoad = q, load
		} else if load == myLoad-1 {
			equals = append(equals, q)
		}
	}
	h.repickScratch = equals
	target := best
	if target == nil && len(equals) > 0 && h.rng.Float64() < h.cfg.RepickEpsilon {
		target = equals[h.rng.Intn(len(equals))]
	}
	if target == nil {
		return
	}
	h.deschedule(p, StateRunnable, true)
	p.dequeue(v)
	v.assigned = target
	h.vcpuMigrations++
	target.enqueue(v)
	h.dispatch(p)
	h.checkPreempt(target)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
