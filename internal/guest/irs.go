package guest

import (
	"repro/internal/hypervisor"
	"repro/internal/sim"
)

// The guest half of IRS (§3.2–3.3, §4.2 of the paper):
//
//   - SA receiver: the VIRQ_SA_UPCALL interrupt handler (entered via
//     CPU.TakeIRQ, which models the handler + softirq latency).
//   - Context switcher: the UPCALL_SOFTIRQ bottom half. It deschedules
//     the current task, marks it migrating, wakes the migrator, and
//     acknowledges the SA with SCHEDOP_block or SCHEDOP_yield.
//   - Migrator: a system-wide kernel thread that moves the descheduled
//     task to the least-loaded sibling vCPU (Algorithm 2).

// finishSAUpcall is the context switcher: it runs after the SA
// receiver's handling cost has elapsed and must end with the sched_op
// hypercall that acknowledges the activation.
func (c *CPU) finishSAUpcall() {
	c.saInFlight = false
	k := c.kern
	if !k.cfg.IRS {
		// Vanilla guest: the notification is ignored; the hypervisor's
		// hard limit will complete the preemption.
		return
	}
	t := c.cur
	if t != nil {
		// Deschedule the running task and hand it to the migrator.
		c.bankCur()
		c.execGen++
		t.state = TaskMigrating
		t.MarkDisplaced(c)
		c.cur = nil
		k.spanSync(t)
		k.migrator.submit(t)
	}
	// Acknowledge: block when the runqueue is empty, else yield so the
	// remaining tasks keep the vCPU runnable (Algorithm 1, line 12).
	if c.rq.Len() == 0 {
		c.stopTick()
		if !k.hv.SchedOpBlock(c.vcpu) {
			// A pending interrupt prevented blocking; yield instead so
			// the hypervisor can complete the preemption.
			k.hv.SchedOpYield(c.vcpu)
		}
		return
	}
	k.hv.SchedOpYield(c.vcpu)
}

// migrator is the IRS migration kernel thread. It is modelled as a
// lightweight actor that runs as soon as any vCPU of the VM is
// executing (it borrows CPU like the real migration kthread, but we do
// not charge it a full scheduling slot).
type migrator struct {
	kern    *Kernel
	runFn   func()
	queue   []migrItem
	waiting bool
	busy    bool
	// retrying holds tasks parked in a backoff wait between migration
	// attempts (Config.MigratorRetries); the invariant audit uses it to
	// locate every TaskMigrating task.
	retrying map[*Task]struct{}
}

// migrItem is one queued migration with its submission time, so the
// migrator's queueing + processing latency is measurable.
type migrItem struct {
	t       *Task
	at      sim.Time
	retries int
}

// submit hands a descheduled task to the migrator and tries to run it.
func (m *migrator) submit(t *Task) {
	m.queue = append(m.queue, migrItem{t: t, at: m.kern.Now()})
	m.kick()
}

// kick attempts to process queued migrations; called on submit and
// whenever a vCPU resumes.
func (m *migrator) kick() {
	if m.busy || len(m.queue) == 0 {
		return
	}
	runner := m.runnerCPU()
	if runner == nil {
		m.waiting = true
		return
	}
	m.waiting = false
	m.busy = true
	// An injected fault can stall the migrator kthread here, delaying
	// every queued migration (drainSync is unaffected: a CPU about to
	// idle settles its landing spot synchronously either way).
	delay := migratorCost + m.kern.cfg.Faults.MigratorStall()
	m.kern.eng.After(delay, m.runFn)
}

// run is the migrator thread's wakeup after its scan cost (bound once
// as runFn).
func (m *migrator) run() {
	m.busy = false
	m.drain()
}

// runnerCPU finds an executing vCPU for the migrator to run on.
func (m *migrator) runnerCPU() *CPU {
	for _, c := range m.kern.cpus {
		if c.running {
			return c
		}
	}
	return nil
}

// drainSync processes queued migrations immediately (invoked from a
// CPU that is about to idle and may be a landing spot).
func (m *migrator) drainSync() {
	if m.busy {
		return
	}
	m.drain()
}

// drain processes all queued migrations.
func (m *migrator) drain() {
	for len(m.queue) > 0 {
		item := m.queue[0]
		m.queue = m.queue[1:]
		m.migrate(item)
	}
	m.kick()
}

// retryLater parks the migration for MigratorBackoff, then re-submits
// it (hardened path; see Config.MigratorRetries).
func (m *migrator) retryLater(item migrItem) {
	k := m.kern
	item.retries++
	k.MigratorRetried++
	if m.retrying == nil {
		m.retrying = make(map[*Task]struct{})
	}
	m.retrying[item.t] = struct{}{}
	k.eng.After(k.cfg.MigratorBackoff, func() {
		delete(m.retrying, item.t)
		if item.t.state != TaskMigrating || item.t.exited {
			return
		}
		m.queue = append(m.queue, item)
		m.kick()
	})
}

// migrate implements Algorithm 2: find the least-loaded sibling vCPU —
// an idle one if possible, otherwise the running vCPU with the lowest
// rt_avg — and move the task there. Preempted (runnable) vCPUs and the
// source vCPU are skipped. With no target the task returns home, or —
// hardened — the attempt is retried after a bounded backoff.
func (m *migrator) migrate(item migrItem) {
	t, submitted := item.t, item.at
	if t.state != TaskMigrating || t.exited {
		return
	}
	k := m.kern
	k.mMigrLatency.Add(k.Now() - submitted)
	src := t.homeCPU
	var idle, leastLoaded *CPU
	for _, c := range k.cpus {
		if c == src || (t.Affinity != nil && t.Affinity != c) {
			continue
		}
		rs := k.hv.GetRunstate(c.vcpu)
		switch {
		case c.GuestIdle() && rs.State != hypervisor.StateRunnable:
			idle = c
		case rs.State == hypervisor.StateRunning:
			if leastLoaded == nil || c.rtAvg < leastLoaded.rtAvg {
				leastLoaded = c
			}
		}
		if idle != nil {
			break
		}
	}
	target := idle
	if target == nil {
		target = leastLoaded
	}
	canRetry := k.cfg.MigratorRetries > 0 && item.retries < k.cfg.MigratorRetries
	if target != nil && target == leastLoaded && canRetry && !target.running {
		// Hardened: the runstate snapshot called the target Running but
		// the vCPU is not actually executing (a stale VCPUOP_get_runstate
		// reply). Landing the task there re-creates the preemption wait
		// IRS exists to avoid; back off and retry instead.
		target = nil
	}
	if target == nil {
		if canRetry {
			m.retryLater(item)
			return
		}
		// No viable destination (every sibling is preempted): put the
		// task back on its home runqueue; it runs when the vCPU does.
		// The home vCPU blocked when it acknowledged the SA, so it must
		// be kicked awake to ever reconsider its runqueue.
		t.MigrTag = false
		t.homeCPU = nil
		t.state = TaskReady
		t.cpu = src
		src.rq.Enqueue(t)
		k.spanSync(t)
		k.kickCPU(src)
		return
	}
	k.moveTask(t, target)
	// moveTask consumes displacement tags; this move IS the
	// displacement, so re-tag with the original home.
	t.MarkDisplaced(src)
	k.IRSMigrations++
	k.checkMigratePreempt(target, t)
	k.kickCPU(target)
}

// checkMigratePreempt applies check_preempt_curr semantics on migration
// arrival: a migrated task with markedly lower vruntime preempts the
// current task (§5.2: "the migrated task likely has smaller virtual
// runtime ... and would be prioritized by CFS").
func (k *Kernel) checkMigratePreempt(c *CPU, t *Task) {
	cur := c.cur
	if cur == nil {
		return
	}
	if t.vruntime < cur.vruntime-wakeupGranularity {
		c.setNeedResched()
	}
}

// MigrationLatencyProbe forcibly migrates task t to CPU dst using the
// stopper-thread protocol (migration_cpu_stop): if t is running, the
// request executes on t's CPU the next time its vCPU actually runs —
// the semantics that produce Figure 1(b)'s staircase. done receives
// the request-to-completion latency.
func (k *Kernel) MigrationLatencyProbe(t *Task, dst *CPU, done func(sim.Time)) {
	start := k.Now()
	finish := func() {
		if done != nil {
			done(k.Now() - start)
		}
	}
	src := t.cpu
	if t.state == TaskReady {
		// Fast path: a ready task moves without the stopper.
		src.rq.Remove(t)
		k.moveTask(t, dst)
		k.kickCPU(dst)
		finish()
		return
	}
	if t.state != TaskRunning {
		finish()
		return
	}
	t.Affinity = dst
	work := func() {
		if t.state != TaskRunning || t.cpu != src {
			finish()
			return
		}
		src.bankCur()
		src.execGen++
		src.cur = nil
		k.moveTask(t, dst)
		k.kickCPU(dst)
		src.schedule()
		finish()
	}
	// migration_cpu_stop must execute on the source CPU while it
	// actually runs; if the vCPU is (or becomes) preempted, the work
	// waits in the stopper queue until the vCPU resumes.
	if src.running {
		k.eng.After(stopperCost, func() {
			if src.running {
				work()
				return
			}
			src.stoppers = append(src.stoppers, work)
		})
		return
	}
	src.stoppers = append(src.stoppers, work)
}
