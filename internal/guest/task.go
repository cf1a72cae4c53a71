// Package guest models a Linux-like SMP guest kernel running inside a
// hypervisor VM: per-vCPU CFS runqueues, timer ticks, push/pull/wakeup
// load balancing with rt_avg load tracking, and the guest half of IRS
// (SA receiver, context switcher, migrator — §3 and §4.2 of the paper).
package guest

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/span"
)

// TaskState is the guest-kernel state of a task.
type TaskState int

const (
	// TaskReady means the task sits on a runqueue waiting for CPU.
	TaskReady TaskState = iota + 1
	// TaskRunning means the task is the current task of a CPU. Note
	// that the backing vCPU may itself be preempted by the hypervisor —
	// the guest still sees the task as running (the semantic gap).
	TaskRunning
	// TaskBlocked means the task sleeps (mutex wait, sleep, I/O).
	TaskBlocked
	// TaskMigrating means the task was evicted from a preempted vCPU by
	// the IRS context switcher and is in the migrator's hands.
	TaskMigrating
	// TaskDone means the task exited.
	TaskDone
)

func (s TaskState) String() string {
	switch s {
	case TaskReady:
		return "ready"
	case TaskRunning:
		return "running"
	case TaskBlocked:
		return "blocked"
	case TaskMigrating:
		return "migrating"
	case TaskDone:
		return "done"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// Program drives a task's behaviour. Step is called whenever the
// previous action has fully completed and must return the next action.
type Program interface {
	Step(t *Task) Action
}

// ActionKind discriminates Action.
type ActionKind int

const (
	// ActRun executes on-CPU work for Dur, then calls Done.
	ActRun ActionKind = iota + 1
	// ActExit terminates the task.
	ActExit
)

// Action is one step of a program: compute for Dur, then perform Done
// (typically a synchronization operation). Done receives a resume
// callback that must be invoked exactly once — possibly much later,
// e.g. after a lock wait — to advance to the next Step.
type Action struct {
	Kind ActionKind
	Dur  sim.Time
	Done func(t *Task, resume func())
}

// Run is shorthand for a pure-compute action.
func Run(d sim.Time) Action { return Action{Kind: ActRun, Dur: d} }

// RunThen is a compute action followed by a completion operation.
func RunThen(d sim.Time, done func(t *Task, resume func())) Action {
	return Action{Kind: ActRun, Dur: d, Done: done}
}

// Exit terminates the task.
func Exit() Action { return Action{Kind: ActExit} }

// spinWait tracks a task busy-waiting on a condition. The wait ends
// when granted is set (direct handoff) or poll succeeds (test-and-set
// re-acquire); resume then continues the program. A bounded wait
// (budget > 0) falls back to onTimeout — running in task context with
// the wait's resume callback — once spent reaches the budget (adaptive
// mutex / futex pre-sleep spinning). poll and onTimeout take the task,
// so a lock binds them once per primitive rather than once per wait.
type spinWait struct {
	granted bool
	poll    func(t *Task) bool
	resume  func()

	budget    sim.Time
	spent     sim.Time
	onTimeout func(t *Task, resume func())
	timeoutEv sim.EventRef
}

// Task is a guest thread.
type Task struct {
	ID   int
	Name string
	kern *Kernel
	prog Program

	state TaskState
	cpu   *CPU // CPU the task is assigned to (rq owner or runner)

	vruntime sim.Time
	weight   int

	// Current compute segment.
	segRemaining sim.Time
	segDone      func()
	// pending is executed the next time the task gets on CPU, before
	// resuming any compute segment (continuation after a wakeup).
	pending func()

	// stepFn advances the program (it is also the resume callback handed
	// to every Action.Done); actFn runs the current action's actDone with
	// it. Both are bound once at Spawn so a program step allocates
	// nothing in the kernel.
	stepFn, actFn func()
	actDone       func(t *Task, resume func())
	// sleepFn is SleepTask's timer callback, bound on the task's first
	// sleep; sleepCont is the continuation of the sleep in progress.
	sleepFn, sleepCont func()

	// spin points at spinRec while the task busy-waits and is nil
	// otherwise. Each wait reuses the record, so spinGen numbers the
	// waits: a budget timeout armed for one wait can never end the next.
	spin    *spinWait
	spinRec spinWait
	spinGen uint64

	// span, when non-nil, is the request this task is currently
	// serving; every scheduling transition re-blames it (see span.go).
	span *span.Span
	// spinHolder, set by lock implementations for the duration of a
	// spin wait, reports who holds the awaited lock so spin time can be
	// blamed on lock-holder preemption when the holder is stalled.
	spinHolder func() *Task

	// Lock bookkeeping for LHP/LWP classification.
	LocksHeld   int
	WaitingLock bool

	// Affinity restricts the task to a single CPU (cpus_allowed with
	// one bit set); nil means any CPU. Balancers and the migrator
	// respect it.
	Affinity *CPU

	// IRS bookkeeping.
	MigrTag bool // task was displaced from a preempted vCPU (paper §3.3)
	homeCPU *CPU // CPU the task was evicted from
	lastRun sim.Time

	// Statistics.
	CPUTime    sim.Time
	Migrations int64
	exited     bool
}

// State returns the task's current state.
func (t *Task) State() TaskState { return t.state }

// CPU returns the CPU the task is currently assigned to.
func (t *Task) CPU() *CPU { return t.cpu }

// Span returns the request span bound to this task, if any.
func (t *Task) Span() *span.Span { return t.span }

// SetSpinHolder declares who holds the lock the task is about to spin
// on; lock implementations call it just before SpinTask and the kernel
// clears it when the spin ends.
func (t *Task) SetSpinHolder(fn func() *Task) { t.spinHolder = fn }

// Kernel returns the guest kernel owning this task.
func (t *Task) Kernel() *Kernel { return t.kern }

func (t *Task) String() string {
	return fmt.Sprintf("%s(%s)", t.Name, t.state)
}

// MarkDisplaced tags t as displaced from its home CPU by the IRS
// context switcher. The balancer prefers pulling displaced tasks back
// home, and with IRS enabled a waking task preempts a displaced current
// task instead of migrating away (Fig. 4).
func (t *Task) MarkDisplaced(home *CPU) {
	t.MigrTag = true
	t.homeCPU = home
}
