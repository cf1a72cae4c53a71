package guest

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/hypervisor"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/trace"
)

// The Linux 3.18-era CFS setup the paper's guests run at its stock
// defaults (250 Hz tick, ~6 ms effective slices with two runnable
// tasks), and the costs of the kernel paths no study varies. They are
// properties of the modelled system, so they are fixed.
const (
	// tickPeriod is the timer-interrupt period (Linux: 4 ms at 250 Hz).
	tickPeriod = 4 * sim.Millisecond
	// schedLatency is the CFS scheduling period; each of n runnable
	// tasks gets schedLatency/n, floored at minGranularity.
	schedLatency   = 12 * sim.Millisecond
	minGranularity = 2 * sim.Millisecond
	// wakeupGranularity limits wakeup preemption: a waking task preempts
	// only when its vruntime lags the current task's by more than this.
	wakeupGranularity = 1 * sim.Millisecond
	// balanceInterval is the periodic load-balancing period per CPU.
	balanceInterval = 20 * sim.Millisecond

	tickCost     = 1 * sim.Microsecond   // timer-interrupt handler
	migratorCost = 4 * sim.Microsecond   // migrator scan + __migrate_task
	stopperCost  = 5 * sim.Microsecond   // migration_cpu_stop on the source CPU
	cacheHot     = 500 * sim.Microsecond // tasks that ran more recently are not pulled
)

// Config holds guest-kernel tunables. Defaults add the measured costs of
// the IRS paths (§3.1: SA handling takes 20–26 µs end to end) to the
// fixed CFS setup above.
type Config struct {
	// IRS enables the guest half of interference-resilient scheduling:
	// the VIRQ_SA_UPCALL handler, context switcher, and migrator.
	IRS bool

	// IRSPull additionally enables the pull-based migration mechanism
	// proposed as future work in §6: an idling guest CPU steals the
	// frozen current task of a preempted sibling vCPU.
	IRSPull bool

	// Protocol-hardening toggles, each settable alone so the fault tests
	// can isolate it. All off by default, reproducing the paper's
	// unhardened protocol.

	// HardenDupSA suppresses duplicate SA upcalls: an upcall arriving
	// while the context switcher is already in flight is dropped
	// instead of restarting the handler (which would double its latency
	// and can push the ack past the hypervisor's hard limit).
	HardenDupSA bool
	// MigratorRetries bounds re-submission when the migrator finds no
	// viable target or its chosen busy target turns out to be preempted
	// (stale runstate); MigratorBackoff is the delay between attempts.
	// 0 retries reproduces the immediate send-home fallback.
	MigratorRetries int
	MigratorBackoff sim.Time
	// WakePoll, when positive, arms a recovery timer before the idle
	// loop blocks the vCPU, so a lost wakeup kick strands queued work
	// for at most WakePoll instead of forever.
	WakePoll sim.Time

	// Faults, when non-nil, injects guest-side faults: timer-tick
	// jitter and migrator-thread stalls. Nil injects nothing.
	Faults *fault.Injector

	// Trace, when non-nil, records task scheduling events.
	Trace *trace.Log

	// Spans, when non-nil, is the tracer request-serving workloads on
	// this kernel mint blame spans from (see internal/span). Nil
	// disables causal tracing at zero cost.
	Spans *span.Tracer

	// SpinBeforeBlock is the adaptive-spin budget blocking primitives
	// burn before sleeping (futex/adaptive-mutex pre-sleep spinning).
	// This short spinning is what pause-loop exiting punishes on
	// blocking workloads (§5.2). 0 disables it.
	SpinBeforeBlock sim.Time

	// Costs of kernel paths, charged as virtual time.
	CtxSwitchCost sim.Time // task context switch
	IRQCost       sim.Time // generic interrupt entry/exit
	SAHandlerCost sim.Time // SA receiver + context switcher bottom half

	Seed uint64
}

// DefaultConfig returns the Linux-like defaults used in the paper's
// evaluation.
func DefaultConfig() Config {
	return Config{
		SpinBeforeBlock: 40 * sim.Microsecond,
		CtxSwitchCost:   3 * sim.Microsecond,
		IRQCost:         2 * sim.Microsecond,
		SAHandlerCost:   18 * sim.Microsecond,
		Seed:            1,
	}
}

// Kernel is one guest operating system instance driving one VM.
type Kernel struct {
	eng  *sim.Engine
	hv   *hypervisor.Hypervisor
	vm   *hypervisor.VM
	cfg  Config
	cpus []*CPU
	rng  *sim.RNG

	tasks      []*Task
	nextTaskID int
	liveTasks  int

	migrator *migrator
	// spanObs is set once the per-vCPU span observers are registered
	// (first AttachSpan).
	spanObs bool

	// OnAllExited fires once every spawned task has exited.
	OnAllExited func()

	// Statistics.
	TaskMigrations  int64
	WakeMigrations  int64
	PullMigrations  int64
	IRSMigrations   int64
	IRSPullSteals   int64
	idleBalanceRuns int64
	spinWaits       int64

	// Hardening statistics (see the Harden* / WakePoll config knobs).
	SADupSuppressed    int64 // duplicate SA upcalls dropped
	MigratorRetried    int64 // migrations re-attempted after backoff
	WakePollRecoveries int64 // lost wakeups recovered by the idle poll

	// mMigrLatency is the migrator-latency histogram (nil, hence no-op,
	// without a registry).
	mMigrLatency *obs.Histogram
}

// NewKernel boots a guest kernel onto vm, creating one guest CPU per
// vCPU and registering the interrupt/scheduling hooks with the
// hypervisor. Call Start to bring the vCPUs online.
func NewKernel(hv *hypervisor.Hypervisor, vm *hypervisor.VM, cfg Config) *Kernel {
	k := &Kernel{
		eng: hv.Engine(),
		hv:  hv,
		vm:  vm,
		cfg: cfg,
		rng: sim.NewRNG(cfg.Seed ^ uint64(vm.ID)<<32 ^ 0x6e51),
	}
	for i, v := range vm.VCPUs {
		c := &CPU{kern: k, id: i, vcpu: v}
		c.bindHandlers()
		k.cpus = append(k.cpus, c)
		hv.RegisterGuest(v, c)
	}
	k.migrator = &migrator{kern: k}
	k.migrator.runFn = k.migrator.run
	return k
}

// AttachMetrics registers read-only views of the kernel's statistics
// on reg: migrations by cause, idle balancing, spin waits, the
// hardening counters and each CPU's rt_avg. The migrator-latency
// histogram is the only pushed metric, since it needs every sample.
func (k *Kernel) AttachMetrics(reg *obs.Registry) {
	vmL := obs.Labels{Sub: "guest", VM: k.vm.Name}
	reg.CounterFunc("guest_task_migrations_total", vmL, obs.Field(&k.TaskMigrations))
	reg.CounterFunc("guest_wake_migrations_total", vmL, obs.Field(&k.WakeMigrations))
	reg.CounterFunc("guest_pull_migrations_total", vmL, obs.Field(&k.PullMigrations))
	reg.CounterFunc("guest_irs_migrations_total", vmL, obs.Field(&k.IRSMigrations))
	reg.CounterFunc("guest_irs_pull_steals_total", vmL, obs.Field(&k.IRSPullSteals))
	reg.CounterFunc("guest_idle_balance_total", vmL, obs.Field(&k.idleBalanceRuns))
	reg.CounterFunc("guest_spin_waits_total", vmL, obs.Field(&k.spinWaits))
	reg.CounterFunc("guest_sa_dup_suppressed_total", vmL, obs.Field(&k.SADupSuppressed))
	reg.CounterFunc("guest_migrator_retries_total", vmL, obs.Field(&k.MigratorRetried))
	reg.CounterFunc("guest_wake_poll_recoveries_total", vmL, obs.Field(&k.WakePollRecoveries))
	k.mMigrLatency = reg.Histogram("guest_migrator_latency_ns", vmL)
	for i, c := range k.cpus {
		reg.GaugeFunc("guest_rt_avg", obs.Labels{Sub: "guest", VM: k.vm.Name, CPU: fmt.Sprintf("cpu%d", i)}, c.RTAvg)
	}
}

// Start brings all vCPUs online.
func (k *Kernel) Start() {
	for _, c := range k.cpus {
		k.hv.StartVCPU(c.vcpu)
	}
}

// VM returns the hypervisor VM this kernel runs in.
func (k *Kernel) VM() *hypervisor.VM { return k.vm }

// Config returns the kernel configuration.
func (k *Kernel) Config() Config { return k.cfg }

// CPU returns guest CPU i.
func (k *Kernel) CPU(i int) *CPU { return k.cpus[i] }

// CPUs returns all guest CPUs.
func (k *Kernel) CPUs() []*CPU { return k.cpus }

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Now returns current virtual time.
func (k *Kernel) Now() sim.Time { return k.eng.Now() }

// RNG returns the kernel's deterministic random stream.
func (k *Kernel) RNG() *sim.RNG { return k.rng }

// Tasks returns all spawned tasks.
func (k *Kernel) Tasks() []*Task { return k.tasks }

// LiveTasks returns the number of tasks that have not exited.
func (k *Kernel) LiveTasks() int { return k.liveTasks }

// Spawn creates a task running prog, initially ready on CPU cpu.
func (k *Kernel) Spawn(name string, prog Program, cpu int) *Task {
	if cpu < 0 || cpu >= len(k.cpus) {
		panic(fmt.Sprintf("guest: spawn %s on invalid cpu %d", name, cpu))
	}
	t := &Task{
		ID:     k.nextTaskID,
		Name:   name,
		kern:   k,
		prog:   prog,
		weight: 1024,
		state:  TaskReady,
		cpu:    k.cpus[cpu],
	}
	k.nextTaskID++
	k.tasks = append(k.tasks, t)
	k.liveTasks++
	c := t.cpu
	t.vruntime = c.minVruntime()
	t.stepFn = func() { k.step(t) }
	t.actFn = func() {
		done := t.actDone
		t.actDone = nil
		done(t, t.stepFn)
	}
	t.pending = t.stepFn
	c.rq.Enqueue(t)
	k.kickCPU(c)
	return t
}

// step asks the program for the next action and begins it. It runs in
// task context (t is the current task of an executing CPU).
func (k *Kernel) step(t *Task) {
	if t.exited {
		return
	}
	act := t.prog.Step(t)
	switch act.Kind {
	case ActExit:
		k.exitTask(t)
	case ActRun:
		t.segRemaining = act.Dur
		if act.Done == nil {
			t.segDone = t.stepFn
		} else {
			t.actDone = act.Done
			t.segDone = t.actFn
		}
		t.cpu.startSegment(t)
	default:
		panic(fmt.Sprintf("guest: bad action kind %d from %s", act.Kind, t.Name))
	}
}

// exitTask terminates t and schedules the next task on its CPU.
func (k *Kernel) exitTask(t *Task) {
	c := t.cpu
	t.exited = true
	t.state = TaskDone
	k.liveTasks--
	if c.cur == t {
		c.bankCur()
		c.cur = nil
		if k.liveTasks == 0 && k.OnAllExited != nil {
			k.OnAllExited()
		}
		c.schedule()
		return
	}
	c.rq.Remove(t)
	if k.liveTasks == 0 && k.OnAllExited != nil {
		k.OnAllExited()
	}
}

// RunInTask schedules d of on-CPU work for task t (which must be the
// current task of its CPU), then calls done. Synchronization code uses
// it to express work performed inside critical sections.
func (k *Kernel) RunInTask(t *Task, d sim.Time, done func()) {
	if t.cpu.cur != t {
		panic("guest: RunInTask on non-current task " + t.Name)
	}
	t.segRemaining = d
	t.segDone = done
	t.cpu.startSegment(t)
}

// BlockTask puts the current task of its CPU to sleep. Synchronization
// primitives call this from task context; the task resumes when
// WakeTask is called and the task is next scheduled.
func (k *Kernel) BlockTask(t *Task) {
	c := t.cpu
	if c.cur != t {
		panic("guest: BlockTask on non-current task " + t.Name)
	}
	c.bankCur()
	t.state = TaskBlocked
	c.cur = nil
	k.spanSync(t)
	if k.cfg.Trace != nil {
		k.cfg.Trace.TaskBlocked(k.eng.Now(), t.Name, c.id)
	}
	c.schedule()
}

// SleepTask blocks the current task for duration d, then wakes it and
// runs cont. (The wakeup timer is modelled as an engine event rather
// than a guest timer interrupt; see DESIGN.md.)
func (k *Kernel) SleepTask(t *Task, d sim.Time, cont func()) {
	if t.sleepFn == nil {
		t.sleepFn = func() { k.sleepWake(t) }
	}
	t.sleepCont = cont
	k.eng.After(d, t.sleepFn)
	k.BlockTask(t)
}

// sleepWake ends a SleepTask. Only the task's own timer wakes a
// sleeping task, so one continuation slot per task suffices.
func (k *Kernel) sleepWake(t *Task) {
	if t.state == TaskBlocked {
		cont := t.sleepCont
		t.sleepCont = nil
		k.WakeTask(t, cont)
	}
}

// WakeTask makes a blocked task ready, running wakeup load balancing to
// choose its CPU. cont, if non-nil, runs when the task next gets CPU.
func (k *Kernel) WakeTask(t *Task, cont func()) {
	if t.state != TaskBlocked {
		panic("guest: WakeTask on " + t.String())
	}
	if cont != nil {
		prev := t.pending
		if prev != nil {
			panic("guest: WakeTask with pending continuation on " + t.Name)
		}
		t.pending = cont
	}
	target := k.selectCPUForWake(t)
	if target != t.cpu {
		k.WakeMigrations++
		t.Migrations++
	}
	t.cpu = target
	t.state = TaskReady
	// Sleeper fairness: never let a long sleeper hoard vruntime credit.
	base := target.minVruntime() - schedLatency/2
	if t.vruntime < base {
		t.vruntime = base
	}
	target.rq.Enqueue(t)
	k.spanSync(t)
	if k.cfg.Trace != nil {
		k.cfg.Trace.TaskWoken(k.eng.Now(), t.Name, target.id)
	}
	k.checkWakePreempt(target, t)
	k.kickCPU(target)
}

// checkWakePreempt applies CFS wakeup preemption plus the IRS rule from
// Fig. 4: a waking task always preempts a migration-tagged current task
// so lock waiters wake on their home vCPU without ping-pong migration.
// Like the real kernel, it only flags the preemption (need_resched);
// the switch happens at the next preemption point.
func (k *Kernel) checkWakePreempt(c *CPU, woken *Task) {
	cur := c.cur
	if cur == nil {
		return
	}
	tagPreempt := k.cfg.IRS && cur.MigrTag
	if !tagPreempt && woken.vruntime >= cur.vruntime-wakeupGranularity {
		return
	}
	c.setNeedResched()
}

// AuditInvariants walks the guest scheduler's state and reports every
// broken invariant through report (rule, detail). The central rule is
// no-lost-tasks: every non-exited task must be locatable exactly where
// its state claims it is — on a CPU, on a runqueue, in the migrator's
// hands, or blocked awaiting a wakeup. Faults (lost kicks, stalled
// migrators, blackouts) may delay tasks, never strand them untracked.
func (k *Kernel) AuditInvariants(report func(rule, detail string)) {
	live := 0
	for _, t := range k.tasks {
		if t.exited {
			if t.state != TaskDone {
				report("no-lost-tasks", fmt.Sprintf("%s exited but in state %s", t.Name, t.state))
			}
			continue
		}
		live++
		switch t.state {
		case TaskRunning:
			if t.cpu == nil || t.cpu.cur != t {
				report("no-lost-tasks", fmt.Sprintf("%s claims running but is not current anywhere", t.Name))
			}
		case TaskReady:
			onRQ := false
			if t.cpu != nil {
				for _, q := range t.cpu.rq.Tasks() {
					if q == t {
						onRQ = true
						break
					}
				}
				if t.cpu.cur == t {
					report("no-lost-tasks", fmt.Sprintf("%s claims ready but is current on cpu%d", t.Name, t.cpu.id))
				}
			}
			if !onRQ {
				report("no-lost-tasks", fmt.Sprintf("%s claims ready but is on no runqueue", t.Name))
			}
		case TaskMigrating:
			found := false
			for _, it := range k.migrator.queue {
				if it.t == t {
					found = true
					break
				}
			}
			if !found {
				_, found = k.migrator.retrying[t]
			}
			if !found {
				report("no-lost-tasks", fmt.Sprintf("%s claims migrating but the migrator does not hold it", t.Name))
			}
		case TaskBlocked:
			// Awaiting an external wakeup; nothing locatable to check.
		default:
			report("no-lost-tasks", fmt.Sprintf("%s in unexpected state %s", t.Name, t.state))
		}
	}
	if live != k.liveTasks {
		report("live-task-count", fmt.Sprintf("%d tasks not exited but liveTasks=%d", live, k.liveTasks))
	}
}

// kickCPU ensures CPU c will notice newly queued work: an idle blocked
// vCPU gets an event-channel kick; an executing idle loop reschedules.
func (k *Kernel) kickCPU(c *CPU) {
	if c.cur != nil {
		return
	}
	if c.running {
		c.schedule()
		return
	}
	if c.vcpu.State() == hypervisor.StateBlocked {
		k.hv.Kick(c.vcpu)
	}
	// A runnable (preempted) vCPU will pick the task up on resume.
}
