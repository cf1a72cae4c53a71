package guest_test

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/guestsync"
	"repro/internal/hypervisor"
	"repro/internal/sim"
)

// TestMigratorPrefersIdleVCPU: Algorithm 2 line 8-10 — an idle sibling
// ends the search.
func TestMigratorPrefersIdleVCPU(t *testing.T) {
	eng := sim.NewEngine()
	hc := hypervisor.DefaultConfig(3)
	hc.Strategy = hypervisor.StrategyIRS
	hv := hypervisor.New(eng, hc)
	fgVM := hv.NewVM("fg", 3, 256, true)
	for i, v := range fgVM.VCPUs {
		v.Pin(hv.PCPU(i))
	}
	bgVM := hv.NewVM("bg", 1, 256, false)
	bgVM.VCPUs[0].Pin(hv.PCPU(0))

	gc := guest.DefaultConfig()
	gc.IRS = true
	fg := guest.NewKernel(hv, fgVM, gc)
	bg := guest.NewKernel(hv, bgVM, guest.DefaultConfig())
	bg.Spawn("hog", hogProg{}, 0)

	// CPU 0 contended and busy; CPU 1 busy; CPU 2 idle.
	w0 := fg.Spawn("w0", hogProg{}, 0)
	fg.Spawn("w1", hogProg{}, 1)
	fg.Start()
	bg.Start()
	if err := eng.Run(2 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fg.IRSMigrations == 0 {
		t.Fatal("no IRS migrations")
	}
	// w0 should have been repeatedly migrated to idle CPU 2 and run at
	// nearly full speed.
	if w0.CPUTime < sim.Time(float64(2*sim.Second)*0.75) {
		t.Fatalf("w0 CPU %v; idle vCPU 2 should have absorbed it", w0.CPUTime)
	}
}

// TestMigratorSkipsPreemptedVCPUs: Algorithm 2 skips runnable (not
// running) siblings — migrating there would not help.
func TestMigratorSkipsPreemptedVCPUs(t *testing.T) {
	eng := sim.NewEngine()
	hc := hypervisor.DefaultConfig(2)
	hc.Strategy = hypervisor.StrategyIRS
	hv := hypervisor.New(eng, hc)
	fgVM := hv.NewVM("fg", 2, 256, true)
	for i, v := range fgVM.VCPUs {
		v.Pin(hv.PCPU(i))
	}
	// Hogs on BOTH pCPUs: every sibling is either running or preempted.
	bgVM := hv.NewVM("bg", 2, 256, false)
	for i, v := range bgVM.VCPUs {
		v.Pin(hv.PCPU(i))
	}
	gc := guest.DefaultConfig()
	gc.IRS = true
	fg := guest.NewKernel(hv, fgVM, gc)
	bg := guest.NewKernel(hv, bgVM, guest.DefaultConfig())
	bg.Spawn("hog0", hogProg{}, 0)
	bg.Spawn("hog1", hogProg{}, 1)
	w0 := fg.Spawn("w0", hogProg{}, 0)
	fg.Start()
	bg.Start()
	if err := eng.Run(2 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	// The task must never be parked on a preempted vCPU's runqueue
	// while some sibling was actually running. Weak check: the task
	// kept making progress close to the fair share.
	if w0.CPUTime < sim.Time(float64(2*sim.Second)*0.35) {
		t.Fatalf("w0 CPU %v, want >= ~40%% of 2s", w0.CPUTime)
	}
}

// barrierPair runs two tasks round-tripping through a mutex to exercise
// the Fig. 4 wakeup path.
type lockStepProg struct {
	mu     *guestsync.Mutex
	rounds int
	work   sim.Time
}

func (p *lockStepProg) Step(t *guest.Task) guest.Action {
	if p.rounds <= 0 {
		return guest.Exit()
	}
	p.rounds--
	return guest.RunThen(p.work, func(tk *guest.Task, resume func()) {
		p.mu.Lock(tk, func() {
			tk.Kernel().RunInTask(tk, p.work/4, func() {
				p.mu.Unlock(tk)
				resume()
			})
		})
	})
}

// TestWakerPreemptsTaggedTask: the Fig. 4 fix — a task waking on its
// home vCPU preempts a migration-tagged current task instead of being
// migrated away (ping-pong avoidance).
func TestWakerPreemptsTaggedTask(t *testing.T) {
	r := newRig(t, 2, 2, nil, func(c *guest.Config) { c.IRS = true })
	// Manufacture the situation directly: task A runs on CPU 1 with a
	// migration tag; sleeping task B previously lived on CPU 1 and CPU 0
	// is idle. Without the Fig. 4 rule, B would wake onto idle CPU 0;
	// with it, B preempts the tagged A in place.
	a := r.kern.Spawn("a", &finiteProg{chunk: 20 * sim.Millisecond, left: 50}, 1)
	b := r.kern.Spawn("b", &sleepProg{sleep: 15 * sim.Millisecond, work: 5 * sim.Millisecond, rounds: 5}, 1)
	a.Affinity = r.kern.CPU(1) // hold both on CPU 1 against idle pulls
	b.Affinity = r.kern.CPU(1)
	r.kern.Start()
	r.eng.After(10*sim.Millisecond, func() {
		a.MarkDisplaced(r.kern.CPU(0))
		b.Affinity = nil // the rule, not affinity, must keep B home
	})
	var preempted bool
	r.eng.Every(500*sim.Microsecond, func() {
		if b.State() == guest.TaskRunning && b.CPU() == r.kern.CPU(1) && a.State() == guest.TaskReady {
			preempted = true
			r.eng.Stop()
		}
	})
	_ = r.eng.Run(2 * sim.Second)
	if !preempted {
		t.Fatal("waking task never preempted the tagged task on its home CPU")
	}
}

// TestTaggedTaskPulledHome: the balancer prefers pulling tagged tasks
// back to their home CPU when it becomes free.
func TestTaggedTaskPulledHome(t *testing.T) {
	r := newRig(t, 2, 2, nil, func(c *guest.Config) { c.IRS = true })
	a := r.kern.Spawn("a", &finiteProg{chunk: 5 * sim.Millisecond, left: 2000}, 0)
	r.kern.Spawn("b", &finiteProg{chunk: 5 * sim.Millisecond, left: 2000}, 1)
	r.kern.Start()
	// Put A on CPU 1's queue as if the IRS migrator displaced it.
	moved := false
	r.eng.After(20*sim.Millisecond, func() {
		if a.State() != guest.TaskRunning || a.CPU() != r.kern.CPU(0) {
			return
		}
		r.kern.MigrationLatencyProbe(a, r.kern.CPU(1), func(sim.Time) {
			a.Affinity = nil // the probe pins; release for the pull-back
			a.MarkDisplaced(r.kern.CPU(0))
			moved = true
		})
	})
	var home bool
	r.eng.Every(sim.Millisecond, func() {
		if moved && a.CPU() == r.kern.CPU(0) && !a.MigrTag {
			home = true
			r.eng.Stop()
		}
	})
	_ = r.eng.Run(5 * sim.Second)
	if !moved {
		t.Skip("displacement never happened")
	}
	if !home {
		t.Fatal("tagged task never pulled back home with its tag cleared")
	}
}

// TestSAEvictionBlocksEmptyVCPU: the context switcher answers
// SCHEDOP_block when the runqueue drains (Algorithm 1 line 12).
func TestSAEvictionBlocksEmptyVCPU(t *testing.T) {
	eng, hv, fg, bg := rig2(t, hypervisor.StrategyIRS, true)
	fg.Spawn("w0", hogProg{}, 0)
	fg.Start()
	bg.Start()
	v0 := fg.VM().VCPUs[0]
	var sawBlocked bool
	eng.Every(sim.Millisecond, func() {
		if v0.State() == hypervisor.StateBlocked {
			sawBlocked = true
			eng.Stop()
		}
	})
	_ = eng.Run(2 * sim.Second)
	_ = hv
	if !sawBlocked {
		t.Fatal("SA eviction never blocked the emptied vCPU")
	}
}

// TestIRSDisabledGuestIgnoresSA: a guest without IRS support never
// migrates on SA, and the hypervisor's hard limit completes preemption.
func TestIRSDisabledGuestIgnoresSA(t *testing.T) {
	eng := sim.NewEngine()
	hc := hypervisor.DefaultConfig(2)
	hc.Strategy = hypervisor.StrategyIRS
	hv := hypervisor.New(eng, hc)
	// VM claims SA capability at the hypervisor but its kernel has
	// IRS disabled (config mismatch — must degrade gracefully).
	fgVM := hv.NewVM("fg", 2, 256, true)
	for i, v := range fgVM.VCPUs {
		v.Pin(hv.PCPU(i))
	}
	bgVM := hv.NewVM("bg", 1, 256, false)
	bgVM.VCPUs[0].Pin(hv.PCPU(0))
	gc := guest.DefaultConfig()
	gc.IRS = false
	fg := guest.NewKernel(hv, fgVM, gc)
	bg := guest.NewKernel(hv, bgVM, guest.DefaultConfig())
	bg.Spawn("hog", hogProg{}, 0)
	fg.Spawn("w0", hogProg{}, 0)
	fg.Start()
	bg.Start()
	if err := eng.Run(2 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	_, _, expired, _, _, _ := hv.SAStats()
	if expired == 0 {
		t.Fatal("hard limit never fired for a non-responsive guest")
	}
	if fg.IRSMigrations != 0 {
		t.Fatal("IRS-disabled guest migrated tasks")
	}
	// Fairness preserved even with expired SAs.
	fgRun := fgVM.VCPUs[0].RunTime()
	bgRun := bgVM.VCPUs[0].RunTime()
	ratio := float64(fgRun) / float64(bgRun)
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("fairness broken: %v vs %v", fgRun, bgRun)
	}
}

// TestPingPongAvoidedWithIRS measures wake migrations with and without
// the Fig. 4 rule using a lock-stepping pair under interference.
func TestPingPongAvoidedWithIRS(t *testing.T) {
	run := func(irs bool) int64 {
		eng, _, fg, bg := rig2(t, strategyFor(irs), irs)
		mu := guestsync.NewMutex(fg)
		fg.Spawn("a", &lockStepProg{mu: mu, rounds: 150, work: 4 * sim.Millisecond}, 0)
		fg.Spawn("b", &lockStepProg{mu: mu, rounds: 150, work: 4 * sim.Millisecond}, 1)
		fg.OnAllExited = func() { eng.Stop() }
		fg.Start()
		bg.Start()
		_ = eng.Run(60 * sim.Second)
		return fg.WakeMigrations
	}
	van := run(false)
	irs := run(true)
	// The rule cannot eliminate wake migrations, but it must not blow
	// them up; this is a smoke check that the tag rule is wired in.
	if irs > van*3+10 {
		t.Fatalf("IRS wake migrations %d vs vanilla %d", irs, van)
	}
}

func strategyFor(irs bool) hypervisor.Strategy {
	if irs {
		return hypervisor.StrategyIRS
	}
	return hypervisor.StrategyVanilla
}
