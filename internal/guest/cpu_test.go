package guest_test

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/guestsync"
	"repro/internal/hypervisor"
	"repro/internal/sim"
)

func TestTickFiresPeriodically(t *testing.T) {
	r := newRig(t, 1, 1, nil, nil)
	r.kern.Spawn("w", &computeProg{chunk: 10 * sim.Millisecond, n: 50}, 0)
	r.kern.OnAllExited = func() { r.eng.Stop() }
	r.kern.Start()
	_ = r.eng.Run(5 * sim.Second)
	ticks := r.kern.CPU(0).TicksRun
	// 500ms of work at a 4ms tick: ~125 ticks.
	if ticks < 100 || ticks > 150 {
		t.Fatalf("ticks = %d, want ~125", ticks)
	}
}

func TestTicklessIdleStopsTicks(t *testing.T) {
	r := newRig(t, 1, 1, nil, nil)
	r.kern.Spawn("w", &computeProg{chunk: 10 * sim.Millisecond, n: 5}, 0)
	r.kern.Start()
	_ = r.eng.Run(2 * sim.Second)
	ticks := r.kern.CPU(0).TicksRun
	// 50ms of work then idle: ticks must stop shortly after.
	if ticks > 20 {
		t.Fatalf("ticks = %d; the idle CPU kept ticking", ticks)
	}
}

func TestCFSInterleavesBySlice(t *testing.T) {
	r := newRig(t, 1, 1, nil, nil)
	a := r.kern.Spawn("a", &computeProg{chunk: 200 * sim.Millisecond, n: 1}, 0)
	b := r.kern.Spawn("b", &computeProg{chunk: 200 * sim.Millisecond, n: 1}, 0)
	r.kern.OnAllExited = func() { r.eng.Stop() }
	r.kern.Start()

	// Track alternation: sample which task runs every ms.
	var switches int
	var last *guest.Task
	r.eng.Every(sim.Millisecond, func() {
		cur := r.kern.CPU(0).Current()
		if cur != nil && cur != last {
			switches++
			last = cur
		}
	})
	_ = r.eng.Run(2 * sim.Second)
	// 400ms total at ~6ms effective slices: dozens of switches.
	if switches < 20 {
		t.Fatalf("only %d task alternations; CFS slicing inactive", switches)
	}
	// Both finish with similar CPU time.
	d := a.CPUTime - b.CPUTime
	if d < 0 {
		d = -d
	}
	if d > 20*sim.Millisecond {
		t.Fatalf("unfair CFS: a=%v b=%v", a.CPUTime, b.CPUTime)
	}
}

func TestIdleTimeAccounted(t *testing.T) {
	r := newRig(t, 1, 1, nil, nil)
	r.kern.Spawn("w", &sleepProg{sleep: 40 * sim.Millisecond, work: 10 * sim.Millisecond, rounds: 10}, 0)
	r.kern.OnAllExited = func() { r.eng.Stop() }
	r.kern.Start()
	_ = r.eng.Run(5 * sim.Second)
	idle := r.kern.CPU(0).IdleTime
	// ~10 rounds × 40ms sleep ≈ 400ms idle.
	if idle < 300*sim.Millisecond {
		t.Fatalf("idle time %v, want ~400ms", idle)
	}
}

func TestSpinBudgetAccountingSurvivesPreemption(t *testing.T) {
	// A spinner whose vCPU is preempted mid-spin must not have its
	// budget consumed by wall-clock time while descheduled.
	eng, _, fg, bg := rig2(t, hypervisor.StrategyVanilla, false)
	mu := guestsync.NewMutex(fg)
	// Holder on CPU 1 (uncontended) holds the lock for a long time.
	holder := &lockStepProg{mu: mu, rounds: 1, work: 200 * sim.Millisecond}
	fg.Spawn("holder", holder, 1)
	// Waiter on contended CPU 0 spins briefly then must sleep — even
	// though its vCPU gets preempted during the spin.
	waiter := &lockStepProg{mu: mu, rounds: 1, work: sim.Millisecond}
	wt := fg.Spawn("waiter", waiter, 0)
	fg.OnAllExited = func() { eng.Stop() }
	fg.Start()
	bg.Start()
	_ = eng.Run(10 * sim.Second)
	if wt.State() != guest.TaskDone {
		t.Fatalf("waiter state %v", wt.State())
	}
	// The waiter's total CPU must be small: spin budget (40µs) + work,
	// not hundreds of ms of spinning.
	if wt.CPUTime > 5*sim.Millisecond {
		t.Fatalf("waiter burned %v; bounded spin failed", wt.CPUTime)
	}
}

func TestExitWhileOthersQueued(t *testing.T) {
	r := newRig(t, 1, 1, nil, nil)
	r.kern.Spawn("a", &computeProg{chunk: 5 * sim.Millisecond, n: 2}, 0)
	r.kern.Spawn("b", &computeProg{chunk: 5 * sim.Millisecond, n: 6}, 0)
	var done bool
	r.kern.OnAllExited = func() { done = true; r.eng.Stop() }
	r.kern.Start()
	_ = r.eng.Run(2 * sim.Second)
	if !done {
		t.Fatal("second task never finished after first exited")
	}
}

func TestRunInTaskPanicsOffCPU(t *testing.T) {
	r := newRig(t, 1, 1, nil, nil)
	tk := r.kern.Spawn("a", &computeProg{chunk: 5 * sim.Millisecond, n: 1}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for RunInTask on a non-current task")
		}
	}()
	r.kern.RunInTask(tk, sim.Millisecond, func() {})
}

func TestBlockTaskPanicsOffCPU(t *testing.T) {
	r := newRig(t, 2, 2, nil, nil)
	tk := r.kern.Spawn("a", &computeProg{chunk: 5 * sim.Millisecond, n: 1}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for BlockTask on a non-current task")
		}
	}()
	r.kern.BlockTask(tk)
}

func TestSpawnOnInvalidCPUPanics(t *testing.T) {
	r := newRig(t, 1, 1, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid CPU index")
		}
	}()
	r.kern.Spawn("bad", &computeProg{}, 7)
}

func TestGuestIdleReflectsState(t *testing.T) {
	r := newRig(t, 1, 1, nil, nil)
	c := r.kern.CPU(0)
	if !c.GuestIdle() {
		t.Fatal("fresh CPU should be idle")
	}
	r.kern.Spawn("a", &computeProg{chunk: 10 * sim.Millisecond, n: 1}, 0)
	if c.GuestIdle() {
		t.Fatal("CPU with a queued task should not be idle")
	}
}
