package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/experiments"
)

// TestAllKindsDecisionLogPinned pins the JSON export of the outage
// rig's full decision log, boost and preempt records included, at two
// seeds. Host-shard records (boost, preempt) and control-shard records
// (place, route, autoscale, ...) land in one barrier batch, so this is
// the golden for the merge order across shards: any change to how a
// barrier orders records from different shards changes these hashes.
func TestAllKindsDecisionLogPinned(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		sha  string
	}{
		{1, "fff12867917ce9e253f409fc036495fcdf7a62f98051024ad9f6eeb6eca1f6c0"},
		{2, "74c56c214af9d845da42864011f1136faebd62cbe7d048470856632de04f2ba9"},
	} {
		_, cfg, err := experiments.ScaleRig(experiments.ScaleOutageSpec, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Decisions = &decision.Options{Kinds: decision.AllKinds()}
		c, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		log := c.Decisions()
		if err := decision.WriteJSON(&buf, log.Records(), log.Dropped()); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("seed %d: all-kinds decision log sha256 %s (%d records, %s), want %s",
				tc.seed, got, len(log.Records()), decision.CountsString(log.Records()), tc.sha)
		}
	}
}
