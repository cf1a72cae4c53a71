package workload_test

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// newTestKernel attaches a default guest kernel to vm, for multi-VM
// attack rigs (the shared rig helper only builds a single VM).
func newTestKernel(hv *hypervisor.Hypervisor, vm *hypervisor.VM) *guest.Kernel {
	return guest.NewKernel(hv, vm, guest.DefaultConfig())
}

func TestParseAttackRoundTrip(t *testing.T) {
	cases := []string{
		"none",
		"tick-evade",
		"boost-game",
		"tick-evade,margin=500µs,resume=100µs",
		"tick-evade,period=10ms,margin=1ms,threads=2",
		"boost-game,run=900µs,sleep=100µs,jitter=0.1",
	}
	for _, spec := range cases {
		s, err := workload.ParseAttack(spec)
		if err != nil {
			t.Fatalf("ParseAttack(%q): %v", spec, err)
		}
		back, err := workload.ParseAttack(s.String())
		if err != nil {
			t.Fatalf("ParseAttack(%q) -> %q does not re-parse: %v", spec, s.String(), err)
		}
		if back != s {
			t.Fatalf("round trip of %q: %+v != %+v", spec, back, s)
		}
	}
}

func TestParseAttackDefaultsAndAliases(t *testing.T) {
	for _, spec := range []string{"", "none", "off", " NONE "} {
		s, err := workload.ParseAttack(spec)
		if err != nil {
			t.Fatalf("ParseAttack(%q): %v", spec, err)
		}
		if !s.Zero() {
			t.Fatalf("ParseAttack(%q) = %+v, want zero spec", spec, s)
		}
	}
	s, err := workload.ParseAttack("TICK-EVADE, margin = 1ms ")
	if err != nil {
		t.Fatalf("case-insensitive parse: %v", err)
	}
	if s.Kind != workload.AttackTickEvade || s.Margin != sim.Millisecond {
		t.Fatalf("parsed %+v", s)
	}
}

func TestParseAttackRejectsMalformedSpecs(t *testing.T) {
	bad := []string{
		"frobnicate",
		"tick-evade,margin",
		"tick-evade,margin=xyz",
		"tick-evade,margin=1ms,margin=2ms",
		"tick-evade,bogus=1",
		"tick-evade,margin=-1ms",
		"tick-evade,threads=-1",
		"tick-evade,jitter=1.5",
		"tick-evade,margin=9ms,resume=2ms", // window swallows the period
		"boost-game,period=1ms,margin=2ms",
		"tick-evade,jitter=NaN",
		"tick-evade,",
	}
	for _, spec := range bad {
		if _, err := workload.ParseAttack(spec); err == nil {
			t.Errorf("ParseAttack(%q) accepted a malformed spec", spec)
		}
	}
}

// The tick-evader's defining property: under vanilla tick-sampled
// accounting it burns CPU but is (almost) never charged, because it
// sleeps across every sampling instant. The honest hog sharing its
// pCPU pays full freight.
func TestTickEvaderDodgesTickDebits(t *testing.T) {
	eng := sim.NewEngine()
	hv := hypervisor.New(eng, hypervisor.DefaultConfig(1))

	atkVM := hv.NewVM("attacker", 1, 256, false)
	atkKern := newTestKernel(hv, atkVM)
	spec, err := workload.ParseAttack("tick-evade")
	if err != nil {
		t.Fatal(err)
	}
	atk := workload.NewAttacker(atkKern, spec, 7)

	hogVM := hv.NewVM("honest", 1, 256, false)
	hogKern := newTestKernel(hv, hogVM)
	hog := workload.NewHog(hogKern, 1)

	atk.Start()
	hog.Start()
	atkKern.Start()
	hogKern.Start()
	if err := eng.Run(2 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}

	atkRun := atkVM.TotalRunTime()
	if atkRun < 500*sim.Millisecond {
		t.Fatalf("attacker only ran %v of 2s; the evasion loop is broken", atkRun)
	}
	// The evader must pay at most a token number of ticks (startup
	// transients) while consuming a large share of the pCPU.
	if atkVM.CreditsDebited > 10*100 {
		t.Fatalf("attacker was debited %d credits over 2s (ran %v); evasion failed",
			atkVM.CreditsDebited, atkRun)
	}
	if hogVM.CreditsDebited < 50*100 {
		t.Fatalf("honest hog debited only %d credits; rig miswired", hogVM.CreditsDebited)
	}
}

// Exact accounting closes the evasion channel: the same attacker is
// charged for (floored) every microsecond it ran, sleep pattern or not.
func TestExactAccountingChargesTickEvader(t *testing.T) {
	cfg := hypervisor.DefaultConfig(1)
	cfg.ExactAccounting = true
	eng := sim.NewEngine()
	hv := hypervisor.New(eng, cfg)

	atkVM := hv.NewVM("attacker", 1, 256, false)
	atkKern := newTestKernel(hv, atkVM)
	spec, _ := workload.ParseAttack("tick-evade")
	atk := workload.NewAttacker(atkKern, spec, 7)

	hogVM := hv.NewVM("honest", 1, 256, false)
	hogKern := newTestKernel(hv, hogVM)
	hog := workload.NewHog(hogKern, 1)

	atk.Start()
	hog.Start()
	atkKern.Start()
	hogKern.Start()
	if err := eng.Run(2 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	hv.SyncCreditAccounting()

	wantAtk := int64(atkVM.TotalRunTime()) * 100 / int64(hypervisor.CreditTick)
	if atkVM.CreditsDebited != wantAtk {
		t.Fatalf("attacker debited %d credits, want %d (exact for %v run)",
			atkVM.CreditsDebited, wantAtk, atkVM.TotalRunTime())
	}
	if atkVM.CreditsDebited < 100 {
		t.Fatalf("attacker debited only %d credits; it should pay for real now", atkVM.CreditsDebited)
	}
}

// The boost-gamer's sleep/wake cycle must re-enter BOOST at a far
// higher rate than an honest CPU hog (which never blocks, so never
// earns wake boosts at all).
func TestBoostGamerFarmsBoosts(t *testing.T) {
	eng := sim.NewEngine()
	hv := hypervisor.New(eng, hypervisor.DefaultConfig(1))

	atkVM := hv.NewVM("attacker", 1, 256, false)
	atkKern := newTestKernel(hv, atkVM)
	spec, _ := workload.ParseAttack("boost-game")
	atk := workload.NewAttacker(atkKern, spec, 7)

	hogVM := hv.NewVM("honest", 1, 256, false)
	hogKern := newTestKernel(hv, hogVM)
	hog := workload.NewHog(hogKern, 1)

	atk.Start()
	hog.Start()
	atkKern.Start()
	hogKern.Start()
	if err := eng.Run(2 * sim.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if atkVM.BoostGrants < 100 {
		t.Fatalf("boost-gamer earned %d boosts over 2s, want hundreds", atkVM.BoostGrants)
	}
	if hogVM.BoostGrants > atkVM.BoostGrants/10 {
		t.Fatalf("honest hog earned %d boosts vs attacker %d; rig miswired",
			hogVM.BoostGrants, atkVM.BoostGrants)
	}
}

func TestAttackerDeterministicAcrossRuns(t *testing.T) {
	run := func() (sim.Time, int64) {
		eng := sim.NewEngine()
		hv := hypervisor.New(eng, hypervisor.DefaultConfig(1))
		atkVM := hv.NewVM("attacker", 1, 256, false)
		atkKern := newTestKernel(hv, atkVM)
		spec, _ := workload.ParseAttack("tick-evade,jitter=0.2")
		atk := workload.NewAttacker(atkKern, spec, 42)
		hogVM := hv.NewVM("honest", 1, 256, false)
		hogKern := newTestKernel(hv, hogVM)
		hog := workload.NewHog(hogKern, 1)
		atk.Start()
		hog.Start()
		atkKern.Start()
		hogKern.Start()
		if err := eng.Run(1 * sim.Second); err != nil {
			t.Fatalf("run: %v", err)
		}
		return atkVM.TotalRunTime(), atkVM.CreditsDebited
	}
	r1, d1 := run()
	r2, d2 := run()
	if r1 != r2 || d1 != d2 {
		t.Fatalf("attacker runs diverged: (%v, %d) vs (%v, %d)", r1, d1, r2, d2)
	}
}

func TestNewAttackerPanicsOnBadSpec(t *testing.T) {
	_, kern := rig(t, 1)
	for _, spec := range []workload.AttackSpec{
		{},
		{Kind: workload.AttackTickEvade, Jitter: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAttacker(%+v) did not panic", spec)
				}
			}()
			workload.NewAttacker(kern, spec, 1)
		}()
	}
}
