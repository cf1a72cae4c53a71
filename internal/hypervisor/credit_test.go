package hypervisor

import (
	"testing"

	"repro/internal/sim"
)

// stubGuest is a minimal guest that never blocks: its vCPU always wants
// to run. It records hook invocations.
type stubGuest struct {
	v         *VCPU
	resumes   int
	suspends  int
	irqs      []IRQ
	preempted PreemptClass
}

func (g *stubGuest) Resume()  { g.resumes++ }
func (g *stubGuest) Suspend() { g.suspends++ }
func (g *stubGuest) TakeIRQ(irq IRQ) {
	g.irqs = append(g.irqs, irq)
	if irq == IRQSAUpcall {
		// Acknowledge immediately with a yield, like a trivial IRS guest.
		g.v.hv.SchedOpYield(g.v)
	}
}
func (g *stubGuest) Descheduling() PreemptClass {
	if g.preempted != 0 {
		return g.preempted
	}
	return PreemptOther
}

// rig creates a hypervisor with stub guests: vms[i] vCPUs for VM i, all
// pinned to pCPU 0 unless spread is true (then vCPU j -> pCPU j).
func rig(t *testing.T, cfg Config, spread bool, vms ...int) (*sim.Engine, *Hypervisor, [][]*stubGuest) {
	t.Helper()
	eng := sim.NewEngine()
	h := New(eng, cfg)
	var guests [][]*stubGuest
	for vi, n := range vms {
		vm := h.NewVM("vm"+string(rune('a'+vi)), n, 256, true)
		var gs []*stubGuest
		for i, v := range vm.VCPUs {
			g := &stubGuest{v: v}
			h.RegisterGuest(v, g)
			if spread {
				v.Pin(h.PCPU(i % cfg.PCPUs))
			} else {
				v.Pin(h.PCPU(0))
			}
			gs = append(gs, g)
		}
		guests = append(guests, gs)
		for _, v := range vm.VCPUs {
			h.StartVCPU(v)
		}
	}
	return eng, h, guests
}

func TestSingleVCPURunsImmediately(t *testing.T) {
	eng, h, gs := rig(t, DefaultConfig(1), false, 1)
	v := h.VMs()[0].VCPUs[0]
	if v.State() != StateRunning {
		t.Fatalf("state = %v, want running", v.State())
	}
	if gs[0][0].resumes != 1 {
		t.Fatalf("resumes = %d, want 1", gs[0][0].resumes)
	}
	_ = eng.Run(100 * sim.Millisecond)
	if v.RunTime() != 100*sim.Millisecond {
		t.Fatalf("runtime = %v, want 100ms", v.RunTime())
	}
}

func TestTwoVCPUsShareFairly(t *testing.T) {
	eng, h, _ := rig(t, DefaultConfig(1), false, 1, 1)
	_ = eng.Run(3 * sim.Second)
	a := h.VMs()[0].VCPUs[0].RunTime()
	b := h.VMs()[1].VCPUs[0].RunTime()
	if a+b < sim.Time(float64(3*sim.Second)*0.99) {
		t.Fatalf("pCPU underused: %v", a+b)
	}
	ratio := float64(a) / float64(b)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("unfair: a=%v b=%v", a, b)
	}
}

func TestWeightedSharing(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, DefaultConfig(1))
	heavy := h.NewVM("heavy", 1, 512, false)
	light := h.NewVM("light", 1, 256, false)
	for _, vm := range []*VM{heavy, light} {
		v := vm.VCPUs[0]
		h.RegisterGuest(v, &stubGuest{v: v})
		v.Pin(h.PCPU(0))
		h.StartVCPU(v)
	}
	_ = eng.Run(6 * sim.Second)
	ratio := float64(heavy.VCPUs[0].RunTime()) / float64(light.VCPUs[0].RunTime())
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("weight 512:256 gave runtime ratio %.2f, want ~2", ratio)
	}
}

func TestSliceRotationGranularity(t *testing.T) {
	cfg := DefaultConfig(1)
	eng, h, _ := rig(t, cfg, false, 1, 1)
	_ = eng.Run(1 * sim.Second)
	// With a 30ms slice, two CPU-bound vCPUs switch roughly
	// 1s/30ms ≈ 33 times (plus boost/tick effects).
	sw := h.PCPU(0).Switches()
	if sw < 20 || sw > 120 {
		t.Fatalf("switches = %d, want ~33-100", sw)
	}
}

func TestRunstateAccountingSumsToWallClock(t *testing.T) {
	eng, h, _ := rig(t, DefaultConfig(1), false, 1, 1, 1)
	_ = eng.Run(2 * sim.Second)
	for _, vm := range h.VMs() {
		v := vm.VCPUs[0]
		total := v.StateTime(StateRunning) + v.StateTime(StateRunnable) + v.StateTime(StateBlocked)
		if total != 2*sim.Second {
			t.Fatalf("%s runstate sum = %v, want 2s", v.Name(), total)
		}
	}
}

func TestStealTimeMatchesCompetitorRuntime(t *testing.T) {
	eng, h, _ := rig(t, DefaultConfig(1), false, 1, 1)
	_ = eng.Run(2 * sim.Second)
	a, b := h.VMs()[0].VCPUs[0], h.VMs()[1].VCPUs[0]
	if a.StealTime() != b.RunTime() {
		t.Fatalf("a.steal=%v b.run=%v (two CPU-bound vCPUs, one pCPU)", a.StealTime(), b.RunTime())
	}
}

func TestBlockAndWake(t *testing.T) {
	eng, h, _ := rig(t, DefaultConfig(1), false, 1)
	v := h.VMs()[0].VCPUs[0]
	eng.After(10*sim.Millisecond, func() {
		if !h.SchedOpBlock(v) {
			t.Error("block failed")
		}
		if v.State() != StateBlocked {
			t.Errorf("state after block = %v", v.State())
		}
	})
	eng.After(50*sim.Millisecond, func() {
		h.WakeVCPU(v)
	})
	_ = eng.Run(100 * sim.Millisecond)
	if v.State() != StateRunning {
		t.Fatalf("state = %v, want running after wake", v.State())
	}
	if got := v.StateTime(StateBlocked); got != 40*sim.Millisecond {
		t.Fatalf("blocked time = %v, want 40ms", got)
	}
}

func TestBoostPreemptsAfterRatelimit(t *testing.T) {
	cfg := DefaultConfig(1)
	eng, h, _ := rig(t, cfg, false, 1, 1)
	a := h.VMs()[0].VCPUs[0]
	b := h.VMs()[1].VCPUs[0]
	// Block A, let B hog, then wake A shortly after B's slice starts:
	// A should preempt B within ~ratelimit, not wait a full 30ms slice.
	eng.After(5*sim.Millisecond, func() { h.SchedOpBlock(a) })
	var wakeAt, runAt sim.Time
	eng.After(100*sim.Millisecond, func() {
		wakeAt = eng.Now()
		h.WakeVCPU(a)
	})
	eng.Every(100*sim.Microsecond, func() {
		if runAt == 0 && wakeAt > 0 && a.State() == StateRunning {
			runAt = eng.Now()
			eng.Stop()
		}
	})
	_ = eng.Run(300 * sim.Millisecond)
	if runAt == 0 {
		t.Fatal("A never ran after wake")
	}
	delay := runAt - wakeAt
	if delay > ratelimit+2*sim.Millisecond {
		t.Fatalf("boost wake delay %v, want <= ratelimit+eps", delay)
	}
	_ = b
}

func TestBoostExpiresAtTick(t *testing.T) {
	cfg := DefaultConfig(1)
	eng, h, _ := rig(t, cfg, false, 1, 1)
	a := h.VMs()[0].VCPUs[0]
	eng.After(5*sim.Millisecond, func() { h.SchedOpBlock(a) })
	eng.After(41*sim.Millisecond, func() { h.WakeVCPU(a) })
	var sawBoost, sawDemote bool
	eng.Every(sim.Millisecond, func() {
		if a.prio == PrioBoost {
			sawBoost = true
		}
		if sawBoost && a.State() == StateRunning && a.prio != PrioBoost {
			sawDemote = true
			eng.Stop()
		}
	})
	_ = eng.Run(300 * sim.Millisecond)
	if !sawBoost {
		t.Fatal("woken vCPU never had BOOST priority")
	}
	if !sawDemote {
		t.Fatal("BOOST never expired at a tick")
	}
}

func TestPinnedVCPUStaysOnPCPU(t *testing.T) {
	cfg := DefaultConfig(2)
	eng, h, _ := rig(t, cfg, true, 2)
	_ = eng.Run(500 * sim.Millisecond)
	for i, v := range h.VMs()[0].VCPUs {
		if v.pcpu != h.PCPU(i) {
			t.Fatalf("vCPU %d on %v, want p%d", i, v.pcpu, i)
		}
	}
}

func TestCreditsNeverExceedCap(t *testing.T) {
	eng, h, _ := rig(t, DefaultConfig(1), false, 1, 1)
	ok := true
	eng.Every(sim.Millisecond, func() {
		for _, vm := range h.VMs() {
			for _, v := range vm.VCPUs {
				if v.credits > creditCap || v.credits < creditFloor {
					ok = false
				}
			}
		}
	})
	_ = eng.Run(2 * sim.Second)
	if !ok {
		t.Fatal("credits escaped [floor, cap]")
	}
}

func TestLHPClassificationCounted(t *testing.T) {
	eng, h, gs := rig(t, DefaultConfig(1), false, 1, 1)
	gs[0][0].preempted = PreemptLockHolder
	_ = eng.Run(1 * sim.Second)
	if h.VMs()[0].LHPCount == 0 {
		t.Fatal("no LHP events for a guest always reporting lock-holder")
	}
	if h.VMs()[0].LWPCount != 0 {
		t.Fatal("unexpected LWP events")
	}
}

func TestDispatchSkipsParkedVCPU(t *testing.T) {
	eng, h, _ := rig(t, DefaultConfig(1), false, 1, 1)
	a := h.VMs()[0].VCPUs[0]
	eng.After(35*sim.Millisecond, func() {
		a.parkedUntil = eng.Now() + 100*sim.Millisecond
		if a.State() == StateRunning {
			p := a.pcpu
			h.deschedule(p, StateRunnable, true)
			h.dispatch(p)
		}
	})
	var ranWhileParked bool
	eng.Every(sim.Millisecond, func() {
		if a.parkedUntil > eng.Now() && a.State() == StateRunning {
			ranWhileParked = true
		}
	})
	_ = eng.Run(120 * sim.Millisecond)
	if ranWhileParked {
		t.Fatal("parked vCPU was scheduled")
	}
}

func TestYieldGoesBehindSameClass(t *testing.T) {
	eng, h, _ := rig(t, DefaultConfig(1), false, 1, 1, 1)
	// At some point, have vm-a yield; vm-b or vm-c should run next.
	a := h.VMs()[0].VCPUs[0]
	eng.After(5*sim.Millisecond, func() {
		if a.State() == StateRunning {
			h.SchedOpYield(a)
			if a.State() != StateRunnable {
				t.Error("yield did not deschedule")
			}
			cur := h.PCPU(0).Current()
			if cur == a {
				t.Error("yielding vCPU still current")
			}
		}
	})
	_ = eng.Run(50 * sim.Millisecond)
}

func TestTimerWakesBlockedVCPU(t *testing.T) {
	eng, h, gs := rig(t, DefaultConfig(1), false, 1)
	v := h.VMs()[0].VCPUs[0]
	eng.After(time10, func() {
		h.SetTimer(v, eng.Now()+20*sim.Millisecond)
		h.SchedOpBlock(v)
	})
	_ = eng.Run(100 * sim.Millisecond)
	if v.State() != StateRunning {
		t.Fatalf("state = %v after timer, want running", v.State())
	}
	found := false
	for _, irq := range gs[0][0].irqs {
		if irq == IRQTimer {
			found = true
		}
	}
	// Timer IRQ arrives pended; the stub does not claim pending IRQs,
	// so only check the wake happened and blocked time is right.
	_ = found
	if bt := v.StateTime(StateBlocked); bt != 20*sim.Millisecond {
		t.Fatalf("blocked %v, want 20ms", bt)
	}
}

const time10 = 10 * sim.Millisecond

// Exact accounting must charge a vCPU for precisely the nanoseconds it
// ran — never more (the tick-edge double-charge this regression pins)
// and never lagging by more than one tick's worth. vm-b's off-grid
// block/wake cycle forces mid-tick dispatches of both vCPUs.
func TestExactAccountingMatchesRunstateAtTickBoundaries(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.ExactAccounting = true
	eng, h, _ := rig(t, cfg, false, 1, 1)
	b := h.VMs()[1].VCPUs[0]
	// Block/wake b on a 7ms/3ms cycle, deliberately coprime with the
	// 10ms tick so dispatch edges wander across tick phases.
	var cycle func()
	cycle = func() {
		if b.State() == StateRunning || b.State() == StateRunnable {
			h.SchedOpBlock(b)
			eng.After(3*sim.Millisecond, func() {
				h.WakeVCPU(b)
				eng.After(7*sim.Millisecond, cycle)
			})
		} else {
			eng.After(7*sim.Millisecond, cycle)
		}
	}
	eng.After(7*sim.Millisecond, cycle)

	owed := func(v *VCPU) int64 {
		return int64(v.RunTime()) * creditsPerTick / int64(CreditTick)
	}
	eng.Every(sim.Millisecond, func() {
		for _, vm := range h.VMs() {
			for _, v := range vm.VCPUs {
				o := owed(v)
				if v.debited > o {
					t.Errorf("t=%v %s: debited %d > owed %d (double charge)",
						eng.Now(), v.Name(), v.debited, o)
				}
				if lag := o - v.debited; lag > creditsPerTick+1 {
					t.Errorf("t=%v %s: settlement lags %d credits (> one tick)",
						eng.Now(), v.Name(), lag)
				}
			}
		}
	})
	_ = eng.Run(1 * sim.Second)
	h.SyncCreditAccounting()
	for _, vm := range h.VMs() {
		var wantVM int64
		for _, v := range vm.VCPUs {
			if v.debited != owed(v) {
				t.Fatalf("%s: final debited %d != owed %d for %v run",
					v.Name(), v.debited, owed(v), v.RunTime())
			}
			wantVM += v.debited
		}
		if vm.CreditsDebited != wantVM {
			t.Fatalf("%s: VM debit counter %d != vCPU sum %d", vm.Name, vm.CreditsDebited, wantVM)
		}
	}
}

// A yielding vCPU re-enqueues behind every peer of its own priority
// class (the yieldHint effective-priority trick), and the hint is
// consumed by that single enqueue.
func TestYieldHintOrdersBehindSamePriorityPeers(t *testing.T) {
	eng, h, _ := rig(t, DefaultConfig(1), false, 1, 1, 1)
	a := h.VMs()[0].VCPUs[0]
	eng.After(5*sim.Millisecond, func() {
		if a.State() != StateRunning {
			t.Fatal("vm-a not running at 5ms")
		}
		h.SchedOpYield(a)
		p := h.PCPU(0)
		// Both queued peers are PrioUnder like a; a must be last.
		if n := len(p.runq); n == 0 || p.runq[n-1] != a {
			t.Errorf("yielder not at runqueue tail: %v", p.runq)
		}
		if a.yieldHint {
			t.Error("yieldHint survived the enqueue")
		}
	})
	_ = eng.Run(50 * sim.Millisecond)
}

// BOOST is re-entrant: expiry at a tick demotes to the credit-derived
// class, but any later block/wake cycle re-grants it as long as the
// vCPU is not OVER — the exact loop the boost-gamer farms. An OVER
// vCPU waking must NOT be boosted.
func TestBoostReentryAfterWake(t *testing.T) {
	cfg := DefaultConfig(1)
	eng, h, _ := rig(t, cfg, false, 1)
	a := h.VMs()[0].VCPUs[0]
	grants := func() int64 { return h.VMs()[0].BoostGrants }
	block := func(label string) {
		if !h.SchedOpBlock(a) {
			t.Fatalf("%s: SchedOpBlock refused (state %v)", label, a.State())
		}
	}

	eng.After(5*sim.Millisecond, func() { block("block-1") })
	eng.After(15*sim.Millisecond, func() {
		h.WakeVCPU(a)
		if a.Prio() != PrioBoost {
			t.Errorf("first wake: prio = %v, want BOOST", a.Prio())
		}
		if grants() != 1 {
			t.Errorf("first wake: grants = %d, want 1", grants())
		}
	})
	// By 35ms at least two ticks have fired, expiring the boost.
	eng.After(35*sim.Millisecond, func() {
		if a.Prio() == PrioBoost {
			t.Error("boost did not expire at a tick")
		}
		block("block-2")
	})
	eng.After(45*sim.Millisecond, func() {
		// Pin the credit class: re-entry is gated on UNDER, and by now
		// the tick debits may have pushed a into OVER.
		a.credits = 100
		a.prio = PrioUnder
		h.WakeVCPU(a)
		if a.Prio() != PrioBoost {
			t.Errorf("second wake: prio = %v, want BOOST (re-entry)", a.Prio())
		}
		if grants() != 2 {
			t.Errorf("second wake: grants = %d, want 2", grants())
		}
	})
	// An OVER vCPU (credits exhausted) gets no boost on wake.
	eng.After(55*sim.Millisecond, func() {
		a.credits = -200
		a.prio = PrioOver
		block("block-3")
	})
	eng.After(58*sim.Millisecond, func() {
		h.WakeVCPU(a)
		if a.Prio() == PrioBoost {
			t.Error("OVER vCPU was boosted on wake")
		}
		if grants() != 2 {
			t.Errorf("OVER wake: grants = %d, want 2 (no new grant)", grants())
		}
		eng.Stop()
	})
	_ = eng.Run(300 * sim.Millisecond)
}

// Jittered tick sampling keeps the mean debit rate (the defense must
// not change honest tenants' bills) and stays deterministic per seed.
func TestJitteredTickPreservesMeanRateDeterministically(t *testing.T) {
	run := func(seed uint64) int64 {
		cfg := DefaultConfig(1)
		cfg.TickJitter = 0.3
		cfg.Seed = seed
		eng, h, _ := rig(t, cfg, false, 1)
		_ = eng.Run(2 * sim.Second)
		return h.VMs()[0].CreditsDebited
	}
	d1 := run(1)
	if d1 != run(1) {
		t.Fatal("same-seed jittered runs diverged")
	}
	// 2s / 10ms mean period = ~200 ticks of 100 credits.
	if d1 < 170*creditsPerTick || d1 > 230*creditsPerTick {
		t.Fatalf("jittered tick debited %d credits over 2s, want ~200 ticks' worth", d1)
	}
}

func TestTickJitterOutOfRangePanics(t *testing.T) {
	for _, j := range []float64{-0.1, 1.0, 2.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TickJitter=%v did not panic", j)
				}
			}()
			cfg := DefaultConfig(1)
			cfg.TickJitter = j
			New(sim.NewEngine(), cfg)
		}()
	}
}
