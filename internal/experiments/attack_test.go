package experiments

import (
	"testing"

	"repro/internal/workload"
)

// The acceptance numbers of the adversarial-tenant experiment: the
// tick-evader steals well above its fair share undefended, both
// defenses together pin it to within 5% of fair, the watchdog fingers
// it, and every cell is invariant-clean.
func TestAttackAcceptance(t *testing.T) {
	evade := workload.AttackSpec{Kind: workload.AttackTickEvade}

	vanilla := attackDefense(t, "vanilla")
	o, err := RunAttack(evade, vanilla, 1)
	if err != nil {
		t.Fatalf("vanilla: %v", err)
	}
	if o.FairRatio < 1.3 {
		t.Errorf("undefended tick-evader obtained only %.3fx fair share, want >= 1.3x", o.FairRatio)
	}
	if o.TopAggressor != "attacker" {
		t.Errorf("attribution ranked %q as top aggressor, want the attacker", o.TopAggressor)
	}
	if o.Debited != 0 {
		t.Errorf("tick-evader was debited %d credits under vanilla sampling, want 0", o.Debited)
	}
	if o.Violations != 0 {
		t.Errorf("vanilla cell has %d invariant violations", o.Violations)
	}

	both := attackDefense(t, "both")
	d, err := RunAttack(evade, both, 1)
	if err != nil {
		t.Fatalf("both: %v", err)
	}
	if d.FairRatio > AttackOvershootCap {
		t.Errorf("defended tick-evader still obtains %.3fx fair share, want <= %.2fx",
			d.FairRatio, AttackOvershootCap)
	}
	if d.Debited == 0 {
		t.Error("defended tick-evader was never debited")
	}
	if d.Violations != 0 {
		t.Errorf("defended cell has %d invariant violations", d.Violations)
	}
	if d.VictimP99 >= o.VictimP99 {
		t.Errorf("victim p99 did not improve under defenses: %v (defended) vs %v (vanilla)",
			d.VictimP99, o.VictimP99)
	}
}

// attackDefense picks a defense row by its table name.
func attackDefense(t *testing.T, name string) AttackDefense {
	t.Helper()
	for _, d := range AttackDefenses() {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no %s defense row", name)
	return AttackDefense{}
}

// The boost-gamer's theft channel (wake boosts) is also capped by the
// defenses.
func TestAttackBoostGamerCapped(t *testing.T) {
	game := workload.AttackSpec{Kind: workload.AttackBoostGame}
	vanilla, both := attackDefense(t, "vanilla"), attackDefense(t, "both")
	o, err := RunAttack(game, vanilla, 1)
	if err != nil {
		t.Fatalf("vanilla: %v", err)
	}
	if o.FairRatio < 1.2 {
		t.Errorf("undefended boost-gamer obtained %.3fx fair share, want >= 1.2x", o.FairRatio)
	}
	d, err := RunAttack(game, both, 1)
	if err != nil {
		t.Fatalf("both: %v", err)
	}
	if d.FairRatio > AttackOvershootCap {
		t.Errorf("defended boost-gamer still obtains %.3fx fair share, want <= %.2fx",
			d.FairRatio, AttackOvershootCap)
	}
}
