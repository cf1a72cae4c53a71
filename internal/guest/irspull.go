package guest

import "repro/internal/hypervisor"

// Pull-based IRS — the paper's proposed future work (§6): "The ideal
// migration should be pull-based and happen when a vCPU becomes idle.
// This calls for a new mechanism of task migration — migrating a
// 'running' task from a preempted vCPU."
//
// With Config.IRSPull enabled, a guest CPU that is about to idle scans
// its siblings: if a sibling vCPU is preempted at the hypervisor
// (runstate runnable) while its current task is frozen mid-execution,
// the idle CPU steals that task directly. Unlike the push-based
// migrator this never guesses at load — migration happens exactly when
// there is a free vCPU to absorb the work.

// irsPullSteal pulls the frozen current task off a preempted sibling
// vCPU. It reports whether a task was stolen.
func (c *CPU) irsPullSteal() bool {
	k := c.kern
	if !k.cfg.IRSPull {
		return false
	}
	for _, o := range k.cpus {
		if o == c || o.cur == nil || o.running {
			continue
		}
		if k.hv.GetRunstate(o.vcpu).State != hypervisor.StateRunnable {
			continue
		}
		t := o.cur
		if t.Affinity != nil && t.Affinity != c {
			continue
		}
		// The task's progress was banked when its vCPU was suspended;
		// detach it and re-home it here. This is the "new mechanism":
		// a guest-visible running task changes CPUs without its host
		// vCPU executing.
		o.cur = nil
		o.execGen++
		k.moveTask(t, c)
		t.MarkDisplaced(o)
		k.IRSPullSteals++
		return true
	}
	return false
}
