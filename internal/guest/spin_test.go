package guest

import (
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/sim"
)

// Tests for the busy-wait API: zero-allocation pins for a spin ended
// by a grant and one ended by its budget, and the reuse of the
// per-task spin record across waits.

// spinProg computes for gap, then busy-waits: unbounded when budget is
// 0, else for at most budget of spinning, after which timeout runs.
// Every callback is bound once at construction.
type spinProg struct {
	k        *Kernel
	gap      sim.Time
	budget   sim.Time
	spins    int
	timeouts int
	spinFn   func(t *Task, resume func())
	timeout  func(t *Task, resume func())
}

func newSpinProg(k *Kernel, gap, budget sim.Time) *spinProg {
	p := &spinProg{k: k, gap: gap, budget: budget}
	p.spinFn = func(t *Task, resume func()) {
		p.spins++
		p.k.SpinTaskBounded(t, p.budget, nil, resume, p.timeout)
	}
	p.timeout = func(_ *Task, resume func()) {
		p.timeouts++
		resume()
	}
	return p
}

func (p *spinProg) Step(*Task) Action { return RunThen(p.gap, p.spinFn) }

// grantProg grants target's spin every gap.
type grantProg struct {
	k       *Kernel
	gap     sim.Time
	target  *Task
	grants  int
	grantFn func(t *Task, resume func())
}

func newGrantProg(k *Kernel, gap sim.Time) *grantProg {
	p := &grantProg{k: k, gap: gap}
	p.grantFn = func(_ *Task, resume func()) {
		if p.target.spin != nil {
			p.grants++
			p.k.GrantSpin(p.target)
		}
		resume()
	}
	return p
}

func (p *grantProg) Step(*Task) Action { return RunThen(p.gap, p.grantFn) }

// spinRig boots a guest with one vCPU per pCPU.
func spinRig(vcpus int) (*sim.Engine, *Kernel) {
	eng := sim.NewEngine()
	hv := hypervisor.New(eng, hypervisor.DefaultConfig(vcpus))
	return eng, NewKernel(hv, hv.NewVM("vm0", vcpus, 256, false), DefaultConfig())
}

// TestSpinGrantZeroAllocs: a spinner on cpu0 is granted by a task on
// cpu1 every 50 µs.
func TestSpinGrantZeroAllocs(t *testing.T) {
	eng, k := spinRig(2)
	spinner := newSpinProg(k, 10*sim.Microsecond, 0)
	granter := newGrantProg(k, 50*sim.Microsecond)
	granter.target = k.Spawn("spinner", spinner, 0)
	k.Spawn("granter", granter, 1)
	k.Start()
	runFor(t, eng, 10*sim.Millisecond)
	spins := spinner.spins
	if allocs := testing.AllocsPerRun(100, func() { runFor(t, eng, sim.Millisecond) }); allocs != 0 {
		t.Fatalf("granted spin allocates %v allocs/op, want 0", allocs)
	}
	if spinner.spins-spins < 1000 || granter.grants < 1000 {
		t.Fatalf("%d spins and %d grants in 101 ms, want one per 50 µs", spinner.spins-spins, granter.grants)
	}
}

// TestSpinBudgetTimeoutZeroAllocs: a spin nobody grants ends by its
// budget timeout every time.
func TestSpinBudgetTimeoutZeroAllocs(t *testing.T) {
	eng, k := spinRig(1)
	spinner := newSpinProg(k, 10*sim.Microsecond, 20*sim.Microsecond)
	k.Spawn("spinner", spinner, 0)
	k.Start()
	runFor(t, eng, 10*sim.Millisecond)
	timeouts := spinner.timeouts
	if allocs := testing.AllocsPerRun(100, func() { runFor(t, eng, sim.Millisecond) }); allocs != 0 {
		t.Fatalf("budget-limited spin allocates %v allocs/op, want 0", allocs)
	}
	if spinner.timeouts-timeouts < 1000 || spinner.timeouts != spinner.spins {
		t.Fatalf("%d timeouts of %d spins, want every spin to time out", spinner.timeouts, spinner.spins)
	}
}

// TestStaleSpinTimeoutSparesNextWait: a bounded spin granted while its
// vCPU is preempted ends when the vCPU runs again, and the task's next
// bounded spin reuses the record. Neither the old wait's budget event
// nor a stale fire of it may end the new wait early: the new wait must
// time out only after spinning its full budget.
func TestStaleSpinTimeoutSparesNextWait(t *testing.T) {
	eng := sim.NewEngine()
	hv := hypervisor.New(eng, hypervisor.DefaultConfig(2))
	vm := hv.NewVM("vm0", 2, 256, false)
	vm.VCPUs[0].Pin(hv.PCPU(0))
	vm.VCPUs[1].Pin(hv.PCPU(1))
	k := NewKernel(hv, vm, DefaultConfig())
	// A hog VM shares pCPU0, so the spinner's vCPU gets preempted.
	hogVM := hv.NewVM("hog", 1, 256, false)
	hogVM.VCPUs[0].Pin(hv.PCPU(0))
	hogs := NewKernel(hv, hogVM, DefaultConfig())
	hogs.Spawn("hog", &loopProg{chunk: sim.Millisecond}, 0)

	const budget = 200 * sim.Millisecond
	spinner := newSpinProg(k, 10*sim.Microsecond, budget)
	task := k.Spawn("spinner", spinner, 0)
	var grantedGen uint64
	var secondStart, secondCPU sim.Time
	var secondSpent sim.Time
	spinner.timeout = func(t *Task, resume func()) {
		spinner.timeouts++
		if spinner.spins == 2 {
			secondSpent = t.CPUTime - secondCPU
		}
		resume()
	}
	staleChecked, staleEnded := false, false
	first := spinner.spinFn
	spinner.spinFn = func(t *Task, resume func()) {
		first(t, resume)
		if spinner.spins != 2 {
			return
		}
		secondStart, secondCPU = k.Now(), t.CPUTime
		// Fire the granted wait's timeout late, as a stale event would:
		// the second wait is executing, so only the generation check
		// can tell the two apart.
		c := t.cpu
		if c.cur != t || !c.running || !c.executing || t.spin == nil {
			return
		}
		c.spinTimeout(t, grantedGen)
		staleChecked = true
		staleEnded = t.spin == nil
	}
	// The watcher grants the first spin the moment it sees the
	// spinner's vCPU preempted mid-spin.
	watcher := &grantProg{k: k, gap: 100 * sim.Microsecond}
	watcher.grantFn = func(_ *Task, resume func()) {
		if grantedGen == 0 && task.spin != nil && vm.VCPUs[0].State() != hypervisor.StateRunning {
			grantedGen = task.spinGen
			k.GrantSpin(task)
		}
		resume()
	}
	k.Spawn("watcher", watcher, 1)
	hogs.Start()
	k.Start()
	runFor(t, eng, sim.Second)
	if grantedGen == 0 {
		t.Fatal("the spinner's vCPU was never preempted mid-spin")
	}
	if spinner.spins < 2 {
		t.Fatalf("%d spins, want the granted one and a second", spinner.spins)
	}
	if !staleChecked {
		t.Fatal("the second spin was not executing when it began")
	}
	if staleEnded {
		t.Fatal("a stale budget timeout ended the next spin")
	}
	runFor(t, eng, 2*sim.Second)
	if spinner.timeouts == 0 || secondStart == 0 {
		t.Fatalf("the second spin never timed out (%d spins, %d timeouts)", spinner.spins, spinner.timeouts)
	}
	if secondSpent < budget {
		t.Fatalf("second spin timed out after %v of CPU, want its full %v budget", secondSpent, budget)
	}
}
