package experiments

import (
	"testing"

	"repro/internal/decision"
)

// TestWhyTrailExactSequence pins the acceptance criterion: the 2z8h
// outage rig's decision trail is exactly the elasticity story — the
// zone cordon, the first failover route, the autoscaler's +2, and the
// two drains after recovery. Anything more (a spurious scale event, a
// failover before the cordon) or less (a missed record) fails here.
func TestWhyTrailExactSequence(t *testing.T) {
	_, cfg, err := ScaleRig(ScaleOutageSpec, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunWhy(cfg, decision.ControlKinds())
	if err != nil {
		t.Fatalf("RunWhy: %v", err)
	}
	trail := decision.Trail(c.Decisions().Records())
	const want = "cordon,failover,scale-up,scale-up,drain,drain"
	if got := decision.TrailString(trail); got != want {
		t.Fatalf("trail = %q, want %q", got, want)
	}
	// The failover route must postdate its cordon and carry the
	// failover input that marks rerouted traffic.
	if trail[1].Rec.At < trail[0].Rec.At {
		t.Fatalf("failover at %v precedes cordon at %v", trail[1].Rec.At, trail[0].Rec.At)
	}
	if _, ok := trail[1].Rec.Input("failover"); !ok {
		t.Fatal("failover step lacks the failover input")
	}
	// Scale directions must agree with the labels.
	for _, step := range trail[2:] {
		act, _ := step.Rec.Input("act")
		switch step.Label {
		case "scale-up":
			if act != "up" {
				t.Fatalf("scale-up step has act=%q", act)
			}
		case "drain":
			if act != "down" {
				t.Fatalf("drain step has act=%q", act)
			}
		}
	}
}

// TestShardedMatchesSerialWhy extends the shard-invariance matrix to
// the decision log: the rendered why table — trail timestamps, margins,
// and the Σ counts of every recorded decision — must be byte-identical
// whether the rig runs serially or across per-host engine shards.
func TestShardedMatchesSerialWhy(t *testing.T) {
	if testing.Short() {
		t.Skip("outage rig at three shard widths")
	}
	serial := shardedTable(t, "why", 1, 1)
	for _, shards := range []int{2, 4} {
		if got := shardedTable(t, "why", 1, shards); got != serial {
			t.Errorf("why table at %d shards differs from serial.\n--- serial ---\n%s--- %d shards ---\n%s",
				shards, serial, shards, got)
		}
	}
}
