package guest_test

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/sim"
)

// finiteProg computes total work in chunks and exits.
type finiteProg struct {
	chunk sim.Time
	left  int
}

func (p *finiteProg) Step(t *guest.Task) guest.Action {
	if p.left <= 0 {
		return guest.Exit()
	}
	p.left--
	return guest.Run(p.chunk)
}

func TestIdleBalancePullsReadyTask(t *testing.T) {
	r := newRig(t, 2, 2, nil, nil)
	// Two tasks spawned on CPU 0; CPU 1 idle. Idle balance should pull
	// one over so they run in parallel.
	r.kern.Spawn("a", &finiteProg{chunk: 10 * sim.Millisecond, left: 10}, 0)
	r.kern.Spawn("b", &finiteProg{chunk: 10 * sim.Millisecond, left: 10}, 0)
	var finished sim.Time
	r.kern.OnAllExited = func() { finished = r.eng.Now(); r.eng.Stop() }
	r.kern.Start()
	if err := r.eng.Run(5 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if finished > 130*sim.Millisecond {
		t.Fatalf("finished at %v; pull balancing failed (serial would be 200ms)", finished)
	}
	if r.kern.PullMigrations == 0 {
		t.Fatal("no pull migrations recorded")
	}
}

func TestAffinityPreventsPull(t *testing.T) {
	r := newRig(t, 2, 2, nil, nil)
	a := r.kern.Spawn("a", &finiteProg{chunk: 10 * sim.Millisecond, left: 10}, 0)
	b := r.kern.Spawn("b", &finiteProg{chunk: 10 * sim.Millisecond, left: 10}, 0)
	a.Affinity = r.kern.CPU(0)
	b.Affinity = r.kern.CPU(0)
	var finished sim.Time
	r.kern.OnAllExited = func() { finished = r.eng.Now(); r.eng.Stop() }
	r.kern.Start()
	if err := r.eng.Run(5 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if finished < 200*sim.Millisecond {
		t.Fatalf("finished at %v; affinity-bound tasks must serialize on CPU 0", finished)
	}
	if a.Migrations+b.Migrations != 0 {
		t.Fatal("affinity-bound task migrated")
	}
}

func TestWakeupPrefersIdleSibling(t *testing.T) {
	r := newRig(t, 2, 2, nil, nil)
	// One CPU-bound task on CPU 0, one sleeper whose previous CPU is 0:
	// on wake, it should land on idle CPU 1.
	r.kern.Spawn("busy", &finiteProg{chunk: 50 * sim.Millisecond, left: 20}, 0)
	sleeper := &sleepProg{sleep: 30 * sim.Millisecond, work: 10 * sim.Millisecond, rounds: 5}
	st := r.kern.Spawn("sleeper", sleeper, 0)
	r.kern.OnAllExited = func() { r.eng.Stop() }
	r.kern.Start()
	if err := r.eng.Run(10 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Migrations == 0 {
		t.Fatal("sleeper never migrated to the idle sibling")
	}
}

type sleepProg struct {
	sleep, work sim.Time
	rounds      int
}

func (p *sleepProg) Step(t *guest.Task) guest.Action {
	if p.rounds <= 0 {
		return guest.Exit()
	}
	p.rounds--
	return guest.RunThen(p.work, func(tk *guest.Task, resume func()) {
		tk.Kernel().SleepTask(tk, p.sleep, resume)
	})
}

func TestRTAvgReflectsSteal(t *testing.T) {
	eng, _, fg, bg := rig2(t, hypervisor.StrategyVanilla, false)
	fg.Spawn("w0", hogProg{}, 0)
	fg.Spawn("w1", hogProg{}, 1)
	bg.Start()
	fg.Start()
	if err := eng.Run(2 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	contended := fg.CPU(0).RTAvg()
	free := fg.CPU(1).RTAvg()
	if contended <= free {
		t.Fatalf("rt_avg contended=%.2f free=%.2f; steal should inflate the contended CPU", contended, free)
	}
}

func TestMigrationProbeFastPathForReadyTask(t *testing.T) {
	r := newRig(t, 2, 2, nil, nil)
	// Two tasks on CPU 0: one runs, the other is ready.
	a := r.kern.Spawn("a", &finiteProg{chunk: 100 * sim.Millisecond, left: 100}, 0)
	b := r.kern.Spawn("b", &finiteProg{chunk: 100 * sim.Millisecond, left: 100}, 0)
	a.Affinity = r.kern.CPU(0)
	b.Affinity = r.kern.CPU(0)
	r.kern.Start()
	var lat sim.Time = -1
	r.eng.After(50*sim.Millisecond, func() {
		ready := a
		if a.State() == guest.TaskRunning {
			ready = b
		}
		ready.Affinity = nil
		r.kern.MigrationLatencyProbe(ready, r.kern.CPU(1), func(l sim.Time) {
			lat = l
			r.eng.Stop()
		})
	})
	_ = r.eng.Run(2 * sim.Second)
	if lat != 0 {
		t.Fatalf("ready-task migration latency = %v, want 0 (fast path)", lat)
	}
}

func TestMigrationProbeWaitsForPreemptedVCPU(t *testing.T) {
	eng, _, fg, bg := rig2(t, hypervisor.StrategyVanilla, false)
	task := fg.Spawn("w0", hogProg{}, 0)
	task.Affinity = fg.CPU(0)
	fg.Start()
	bg.Start()
	var lat sim.Time = -1
	var tryProbe func()
	tryProbe = func() {
		// Probe only when the source vCPU is preempted, like Fig 1(b).
		if fg.VM().VCPUs[0].State() == hypervisor.StateRunnable {
			task.Affinity = nil
			fg.MigrationLatencyProbe(task, fg.CPU(1), func(l sim.Time) {
				lat = l
				eng.Stop()
			})
			return
		}
		eng.After(sim.Millisecond, tryProbe)
	}
	eng.After(500*sim.Millisecond, tryProbe)
	_ = eng.Run(5 * sim.Second)
	if lat < 5*sim.Millisecond {
		t.Fatalf("migration latency %v; stopper must wait for the preempted vCPU (~30ms)", lat)
	}
}

func TestTaskConservation(t *testing.T) {
	// Under heavy churn (migrations, wakes, IRS), every task is always
	// in exactly one place: some CPU's cur, some runqueue, blocked,
	// migrating, or done.
	eng, _, fg, bg := rig2(t, hypervisor.StrategyIRS, true)
	for i := 0; i < 4; i++ {
		fg.Spawn("w", &finiteProg{chunk: 3 * sim.Millisecond, left: 300}, i%2)
	}
	bg.Start()
	fg.Start()
	violations := 0
	eng.Every(sim.Millisecond, func() {
		seen := map[*guest.Task]int{}
		for _, c := range fg.CPUs() {
			if c.Current() != nil {
				seen[c.Current()]++
			}
		}
		for _, tk := range fg.Tasks() {
			switch tk.State() {
			case guest.TaskRunning:
				if seen[tk] != 1 {
					violations++
				}
			case guest.TaskReady, guest.TaskBlocked, guest.TaskMigrating, guest.TaskDone:
				if seen[tk] != 0 {
					violations++
				}
			default:
				violations++
			}
		}
	})
	fg.OnAllExited = func() { eng.Stop() }
	if err := eng.Run(30 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if violations != 0 {
		t.Fatalf("%d task-placement violations", violations)
	}
	if fg.LiveTasks() != 0 {
		t.Fatalf("%d tasks lost", fg.LiveTasks())
	}
}

func TestCPUTimeConservation(t *testing.T) {
	// Total task CPU time must not exceed total vCPU runtime, and must
	// account for most of it (the rest is kernel overhead).
	eng, _, fg, bg := rig2(t, hypervisor.StrategyIRS, true)
	fg.Spawn("w0", &finiteProg{chunk: 5 * sim.Millisecond, left: 400}, 0)
	fg.Spawn("w1", &finiteProg{chunk: 5 * sim.Millisecond, left: 400}, 1)
	fg.OnAllExited = func() { eng.Stop() }
	bg.Start()
	fg.Start()
	if err := eng.Run(30 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	var taskCPU sim.Time
	for _, tk := range fg.Tasks() {
		taskCPU += tk.CPUTime
	}
	vcpuRun := fg.VM().TotalRunTime()
	if taskCPU > vcpuRun {
		t.Fatalf("task CPU %v exceeds vCPU runtime %v", taskCPU, vcpuRun)
	}
	if float64(taskCPU) < float64(vcpuRun)*0.90 {
		t.Fatalf("task CPU %v far below vCPU runtime %v; unaccounted time", taskCPU, vcpuRun)
	}
}
