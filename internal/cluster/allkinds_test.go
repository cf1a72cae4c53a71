package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/experiments"
)

// TestAllKindsDecisionLogPinned pins the outage rig's full decision
// log, boost and preempt records included, at two seeds: its JSON
// export, its Chrome trace, and the rendered Result of the same run
// (the rig audits invariants). Host-shard records (boost, preempt) and
// control-shard records (place, route, autoscale, ...) land in one
// barrier batch, so this is the golden for the merge order across
// shards: any change to how a barrier orders records from different
// shards changes these hashes. The Result hash covers what the
// barrier folds into the control plane: served counts, latency
// quantiles, SLO phases, replicas and invariant violations.
func TestAllKindsDecisionLogPinned(t *testing.T) {
	for _, tc := range []struct {
		seed                uint64
		json, trace, result string
	}{
		{1, "fff12867917ce9e253f409fc036495fcdf7a62f98051024ad9f6eeb6eca1f6c0",
			"7818e250671e11583db20d10e3df17e1ddef1ad2c3803ccce2899532e8784409",
			"98387553c130cf12df73aace467aa72f75a28f742699c2f8730cc68892e97b7b"},
		{2, "74c56c214af9d845da42864011f1136faebd62cbe7d048470856632de04f2ba9",
			"ab68bfb4faac4f840521cc88b931f59152df12b8230e216968738ded70bfd283",
			"dadfd9469e6e4945c88bf8b4f7cd82bd0df12b172058d1e2aa621786efe2980c"},
	} {
		_, cfg, err := experiments.ScaleRig(experiments.ScaleOutageSpec, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.Invariants {
			t.Fatal("outage rig does not audit invariants")
		}
		cfg.Decisions = &decision.Options{Kinds: decision.AllKinds()}
		c, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		log := c.Decisions()
		var js, tr bytes.Buffer
		if err := decision.WriteJSON(&js, log.Records(), log.Dropped()); err != nil {
			t.Fatal(err)
		}
		if err := decision.WriteChromeTrace(&tr, log.Records()); err != nil {
			t.Fatal(err)
		}
		for _, out := range []struct {
			what string
			b    []byte
			want string
		}{
			{"JSON export", js.Bytes(), tc.json},
			{"Chrome trace", tr.Bytes(), tc.trace},
			{"Result", []byte(fmt.Sprintf("%+v", *res)), tc.result},
		} {
			sum := sha256.Sum256(out.b)
			if got := hex.EncodeToString(sum[:]); got != out.want {
				t.Errorf("seed %d: all-kinds %s sha256 %s (%d records, %s), want %s",
					tc.seed, out.what, got, len(log.Records()), decision.CountsString(log.Records()), out.want)
			}
		}
	}
}
