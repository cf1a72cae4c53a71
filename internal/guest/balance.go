package guest

// Guest-level load balancing: pull (idle + periodic) migration and
// wakeup CPU selection. As §2.3 of the paper observes, none of this
// machinery reacts to hypervisor preemption on its own: a preempted
// vCPU's current task stays in the "running" state and is never
// migratable, and hypervisor-level imbalance creates no guest-level
// imbalance. IRS adds the missing trigger (see irs.go).

// pullBalance pulls one ready task from the busiest sibling runqueue.
// idle=true is the aggressive new-idle balance; otherwise the standard
// imbalance threshold applies. It reports whether a task was pulled.
func (c *CPU) pullBalance(idle bool) bool {
	k := c.kern
	if idle {
		k.idleBalanceRuns++
	}
	myLoad := c.rq.Len()
	if c.cur != nil {
		myLoad++
	}
	var busiest *CPU
	busiestLoad := 0
	for _, o := range k.cpus {
		if o == c || o.rq.Len() == 0 {
			continue
		}
		load := o.rq.Len()
		if o.cur != nil {
			load++
		}
		if load > busiestLoad {
			busiest, busiestLoad = o, load
		}
	}
	if busiest == nil {
		return false
	}
	// Standard balance needs a real imbalance; new-idle balance pulls
	// whenever anyone has a waiter.
	if !idle && busiestLoad-myLoad < 2 {
		return false
	}
	t := c.pickPullTask(busiest)
	if t == nil {
		return false
	}
	busiest.rq.Remove(t)
	k.moveTask(t, c)
	k.PullMigrations++
	return true
}

// pickPullTask selects which ready task to steal from src. Tagged tasks
// whose home is this CPU come first (the IRS "bring it back" rule);
// cache-hot tasks are skipped unless nothing else qualifies.
func (c *CPU) pickPullTask(src *CPU) *Task {
	now := c.kern.Now()
	var fallback *Task
	for _, t := range src.rq.Tasks() {
		if t.Affinity != nil && t.Affinity != c {
			continue
		}
		if t.MigrTag && t.homeCPU == c {
			return t
		}
		if now-t.lastRun < cacheHot {
			if fallback == nil {
				fallback = t
			}
			continue
		}
		return t
	}
	return fallback
}

// moveTask re-homes a ready task onto dst, renormalizing its vruntime
// so it neither dominates nor starves on the new queue.
func (k *Kernel) moveTask(t *Task, dst *CPU) {
	// Any onward migration consumes the displacement tag: the task has
	// either returned home or found a new home.
	if t.MigrTag {
		t.MigrTag = false
		t.homeCPU = nil
	}
	src := t.cpu
	if src != nil && src != dst {
		delta := t.vruntime - src.minVruntime()
		if delta < 0 {
			delta = 0
		}
		t.vruntime = dst.minVruntime() + delta
	}
	t.cpu = dst
	t.state = TaskReady
	t.Migrations++
	k.TaskMigrations++
	if k.cfg.Trace != nil {
		from := -1
		if src != nil {
			from = src.id
		}
		k.cfg.Trace.Migrate(k.eng.Now(), t.Name, from, dst.id)
	}
	dst.rq.Enqueue(t)
	k.spanSync(t)
}

// selectCPUForWake chooses where a waking task should run: its previous
// CPU when idle, otherwise an idle sibling, otherwise the previous CPU.
// With IRS, a waker whose previous CPU currently runs a migration-
// tagged task stays put and preempts the tagged task instead (the
// ping-pong fix from Fig. 4).
func (k *Kernel) selectCPUForWake(t *Task) *CPU {
	if t.Affinity != nil {
		return t.Affinity
	}
	prev := t.cpu
	if prev == nil {
		prev = k.cpus[0]
	}
	if prev.GuestIdle() {
		return prev
	}
	if k.cfg.IRS && prev.cur != nil && prev.cur.MigrTag {
		return prev
	}
	for _, c := range k.cpus {
		if c.GuestIdle() {
			return c
		}
	}
	return prev
}
