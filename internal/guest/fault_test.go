package guest_test

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/sim"
)

// faultRig2 is rig2 with a shared fault injector attached to both the
// hypervisor and the foreground guest, plus config hooks for the
// hardening knobs under test.
func faultRig2(t *testing.T, plan fault.Plan, hcfg func(*hypervisor.Config), gcfg func(*guest.Config)) (*sim.Engine, *hypervisor.Hypervisor, *guest.Kernel, *guest.Kernel, *fault.Injector) {
	t.Helper()
	eng := sim.NewEngine()
	in := fault.NewInjector(plan, 7)
	hc := hypervisor.DefaultConfig(2)
	hc.Strategy = hypervisor.StrategyIRS
	hc.Faults = in
	if hcfg != nil {
		hcfg(&hc)
	}
	hv := hypervisor.New(eng, hc)

	fgVM := hv.NewVM("fg", 2, 256, true)
	bgVM := hv.NewVM("bg", 1, 256, false)
	for i, v := range fgVM.VCPUs {
		v.Pin(hv.PCPU(i))
	}
	bgVM.VCPUs[0].Pin(hv.PCPU(0))

	gc := guest.DefaultConfig()
	gc.IRS = true
	gc.Faults = in
	if gcfg != nil {
		gcfg(&gc)
	}
	fg := guest.NewKernel(hv, fgVM, gc)
	bg := guest.NewKernel(hv, bgVM, guest.DefaultConfig())
	bg.Spawn("hog", hogProg{}, 0)
	return eng, hv, fg, bg, in
}

// chaosRig hogs BOTH pCPUs so the foreground task cannot escape
// contention: every preemption restarts the SA handshake, giving the
// fault plan a steady stream of deliveries to corrupt.
func chaosRig(t *testing.T, plan fault.Plan, gcfg func(*guest.Config)) (*sim.Engine, *hypervisor.Hypervisor, *guest.Kernel, *guest.Kernel, *fault.Injector) {
	t.Helper()
	eng := sim.NewEngine()
	in := fault.NewInjector(plan, 7)
	hc := hypervisor.DefaultConfig(2)
	hc.Strategy = hypervisor.StrategyIRS
	hc.Faults = in
	hv := hypervisor.New(eng, hc)
	fgVM := hv.NewVM("fg", 2, 256, true)
	bgVM := hv.NewVM("bg", 2, 256, false)
	for i, v := range fgVM.VCPUs {
		v.Pin(hv.PCPU(i))
	}
	for i, v := range bgVM.VCPUs {
		v.Pin(hv.PCPU(i))
	}
	gc := guest.DefaultConfig()
	gc.IRS = true
	gc.Faults = in
	if gcfg != nil {
		gcfg(&gc)
	}
	fg := guest.NewKernel(hv, fgVM, gc)
	bg := guest.NewKernel(hv, bgVM, guest.DefaultConfig())
	bg.Spawn("hog0", hogProg{}, 0)
	bg.Spawn("hog1", hogProg{}, 1)
	return eng, hv, fg, bg, in
}

// TestHardenDupSASuppression: with duplicated SA upcalls and a slow
// handler, the unhardened guest restarts the handler mid-flight and
// blows the hard limit; suppression keeps every handshake inside it.
func TestHardenDupSASuppression(t *testing.T) {
	run := func(harden bool) (*guest.Kernel, *hypervisor.Hypervisor) {
		plan := fault.Plan{DupSA: 1, DelaySA: 20 * sim.Microsecond}
		eng, hv, fg, bg, _ := chaosRig(t, plan, func(c *guest.Config) {
			c.SAHandlerCost = 70 * sim.Microsecond
			c.HardenDupSA = harden
		})
		fg.Spawn("w0", hogProg{}, 0)
		fg.Start()
		bg.Start()
		_ = eng.Run(2 * sim.Second)
		return fg, hv
	}

	fg, hv := run(true)
	sent, _, expired, _, _, _ := hv.SAStats()
	if sent == 0 {
		t.Fatal("no SAs sent under contention")
	}
	if fg.SADupSuppressed == 0 {
		t.Fatal("hardened guest suppressed no duplicate upcalls")
	}
	// A stray timer/kick IRQ can still cancel a handler mid-flight
	// (protocol quirk independent of duplication), so allow a sliver.
	if expired*20 > sent {
		t.Fatalf("hardened guest expired %d/%d handshakes, want <= 5%%", expired, sent)
	}

	fgU, hvU := run(false)
	sentU, _, expiredU, _, _, _ := hvU.SAStats()
	if fgU.SADupSuppressed != 0 {
		t.Fatal("unhardened guest counted suppressions")
	}
	if expiredU*20 <= sentU {
		t.Fatalf("unhardened guest expired only %d/%d handshakes under duplicated upcalls", expiredU, sentU)
	}
}

// TestWakePollRecoversLostKick: with every wakeup kick dropped, a
// sleeper's wake strands its task on a blocked vCPU forever; the idle
// loop's recovery poll bounds the damage to WakePoll.
func TestWakePollRecoversLostKick(t *testing.T) {
	run := func(poll sim.Time) (*guest.Kernel, *guest.Task, bool) {
		eng := sim.NewEngine()
		in := fault.NewInjector(fault.Plan{DropWake: 1}, 7)
		hc := hypervisor.DefaultConfig(2)
		hc.Faults = in
		hv := hypervisor.New(eng, hc)
		vm := hv.NewVM("vm0", 2, 256, false)
		for i, v := range vm.VCPUs {
			v.Pin(hv.PCPU(i))
		}
		gc := guest.DefaultConfig()
		gc.WakePoll = poll
		kern := guest.NewKernel(hv, vm, gc)
		task := kern.Spawn("sleeper", &sleepProg{sleep: 30 * sim.Millisecond, work: 10 * sim.Millisecond, rounds: 5}, 0)
		done := false
		kern.OnAllExited = func() { done = true; eng.Stop() }
		kern.Start()
		_ = eng.Run(5 * sim.Second)
		return kern, task, done
	}

	_, task, done := run(0)
	if done || task.State() == guest.TaskDone {
		t.Fatal("workload finished although every wakeup kick was dropped")
	}

	kern, task, done := run(2 * sim.Millisecond)
	if !done || task.State() != guest.TaskDone {
		t.Fatalf("hardened workload unfinished (task %v)", task.State())
	}
	if kern.WakePollRecoveries == 0 {
		t.Fatal("no wake-poll recoveries recorded")
	}
}

// TestMigratorRetriesLandTask: with every pCPU hogged, stale runstate
// snapshots, and the migrating task affine to a single (often
// preempted) sibling, the migrator regularly finds no trustworthy
// target; bounded retries must kick in without losing the task.
func TestMigratorRetriesLandTask(t *testing.T) {
	eng := sim.NewEngine()
	in := fault.NewInjector(fault.Plan{StaleRunstate: 50 * sim.Millisecond}, 7)
	hc := hypervisor.DefaultConfig(3)
	hc.Strategy = hypervisor.StrategyIRS
	hc.Faults = in
	hv := hypervisor.New(eng, hc)
	fgVM := hv.NewVM("fg", 3, 256, true)
	bgVM := hv.NewVM("bg", 3, 256, false)
	for i, v := range fgVM.VCPUs {
		v.Pin(hv.PCPU(i))
	}
	for i, v := range bgVM.VCPUs {
		v.Pin(hv.PCPU(i))
	}
	gc := guest.DefaultConfig()
	gc.IRS = true
	gc.Faults = in
	gc.MigratorRetries = 3
	gc.MigratorBackoff = 200 * sim.Microsecond
	fg := guest.NewKernel(hv, fgVM, gc)
	bg := guest.NewKernel(hv, bgVM, guest.DefaultConfig())
	for i := 0; i < 3; i++ {
		bg.Spawn(fmt.Sprintf("hog%d", i), hogProg{}, i)
	}
	w0 := fg.Spawn("w0", hogProg{}, 0)
	fg.Spawn("w1", hogProg{}, 1)
	fg.Spawn("w2", hogProg{}, 2)
	// The affinity restricts w0's migrations to CPU 1, which is
	// preempted about half the time: no-viable-target becomes common.
	w0.Affinity = fg.CPU(1)

	var violations []string
	eng.Every(sim.Millisecond, func() {
		fg.AuditInvariants(func(rule, detail string) {
			violations = append(violations, fmt.Sprintf("%s: %s", rule, detail))
		})
	})
	fg.Start()
	bg.Start()
	if err := eng.Run(2 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fg.MigratorRetried == 0 {
		t.Fatal("migrator never retried despite stale runstates and full siblings")
	}
	if len(violations) > 0 {
		t.Fatalf("%d invariant violations, first: %s", len(violations), violations[0])
	}
	// The task must keep progressing despite the retries.
	if w0.CPUTime < sim.Time(float64(2*sim.Second)*0.25) {
		t.Fatalf("w0 CPU %v, want >= ~25%% of 2s", w0.CPUTime)
	}
}

// TestTickJitterKeepsProgress: delayed timer ticks slow CFS slice
// enforcement but never wedge the guest.
func TestTickJitterKeepsProgress(t *testing.T) {
	eng := sim.NewEngine()
	in := fault.NewInjector(fault.Plan{TickJitter: 0.5}, 7)
	hv := hypervisor.New(eng, hypervisor.DefaultConfig(1))
	vm := hv.NewVM("vm0", 1, 256, false)
	vm.VCPUs[0].Pin(hv.PCPU(0))
	gc := guest.DefaultConfig()
	gc.Faults = in
	kern := guest.NewKernel(hv, vm, gc)
	kern.Spawn("a", &finiteProg{chunk: 10 * sim.Millisecond, left: 10}, 0)
	kern.Spawn("b", &finiteProg{chunk: 10 * sim.Millisecond, left: 10}, 0)
	var finished sim.Time
	kern.OnAllExited = func() { finished = eng.Now(); eng.Stop() }
	kern.Start()
	if err := eng.Run(5 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if finished == 0 || finished > 300*sim.Millisecond {
		t.Fatalf("finished at %v, want ~200ms despite tick jitter", finished)
	}
	if in.Count(fault.KindTickJitter) == 0 {
		t.Fatal("no tick jitter injected")
	}
}

// TestMigratorStallDelaysButCompletes: a stalled migrator kthread delays
// SA migrations; they still happen and nothing is lost.
func TestMigratorStallDelaysButCompletes(t *testing.T) {
	plan := fault.Plan{StallProb: 1, StallFor: 200 * sim.Microsecond}
	eng, _, fg, bg, in := faultRig2(t, plan, nil, nil)
	fg.Spawn("w0", hogProg{}, 0)
	var violations []string
	eng.Every(sim.Millisecond, func() {
		fg.AuditInvariants(func(rule, detail string) {
			violations = append(violations, fmt.Sprintf("%s: %s", rule, detail))
		})
	})
	fg.Start()
	bg.Start()
	if err := eng.Run(2 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fg.IRSMigrations == 0 {
		t.Fatal("no IRS migrations despite an idle sibling")
	}
	if in.Count(fault.KindMigratorStall) == 0 {
		t.Fatal("no migrator stalls injected")
	}
	if len(violations) > 0 {
		t.Fatalf("%d invariant violations, first: %s", len(violations), violations[0])
	}
}

// TestGuestAuditCleanUnderChaos: the full hardened stack under a mixed
// loss plan keeps both the guest and hypervisor invariants clean.
func TestGuestAuditCleanUnderChaos(t *testing.T) {
	plan := fault.LossPlan(0.25)
	plan.StallProb = 0.2
	plan.StallFor = 200 * sim.Microsecond
	plan.TickJitter = 0.25
	eng, hv, fg, bg, _ := faultRig2(t, plan,
		func(c *hypervisor.Config) {
			c.SABreakerN = 5
			c.SABreakerCooldown = 50 * sim.Millisecond
		},
		func(c *guest.Config) {
			c.HardenDupSA = true
			c.MigratorRetries = 3
			c.MigratorBackoff = 200 * sim.Microsecond
			c.WakePoll = 5 * sim.Millisecond
		})
	fg.Spawn("w0", hogProg{}, 0)
	fg.Spawn("w1", &sleepProg{sleep: 20 * sim.Millisecond, work: 5 * sim.Millisecond, rounds: 50}, 1)
	var violations []string
	record := func(rule, detail string) {
		violations = append(violations, fmt.Sprintf("%s: %s", rule, detail))
	}
	eng.Every(sim.Millisecond, func() {
		fg.AuditInvariants(record)
		bg.AuditInvariants(record)
		hv.AuditInvariants(record)
	})
	fg.Start()
	bg.Start()
	if err := eng.Run(2 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(violations) > 0 {
		t.Fatalf("%d invariant violations, first: %s", len(violations), violations[0])
	}
}
