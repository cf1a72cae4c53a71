package experiments

import "testing"

// The sharded cluster coordinator promises determinism by
// construction: the rendered tables must be byte-identical whether a
// rack simulates on one engine or on a pool of per-host engines, at
// any worker count, for any seed. These tests pin that contract at the
// experiment layer — every Result field a table renders (latency
// quantiles, SLO counts, migrations, faults, invariant violations)
// feeds the comparison, so a single reordered event anywhere in the
// stack fails here.

// shardedTable renders one experiment table under an explicit shard
// count (Workers=1 keeps the harness out of the picture).
func shardedTable(t *testing.T, id string, seed uint64, shards int) string {
	t.Helper()
	tb, ok := ByID(id, Options{Runs: 1, Seed: seed, Workers: 1, Shards: shards})
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	return tb.String()
}

func TestShardedMatchesSerial(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full rack matrix at three shard widths")
	}
	for _, seed := range []uint64{1, 7} {
		serial := shardedTable(t, "cluster", seed, 1)
		for _, shards := range []int{2, 4} {
			if got := shardedTable(t, "cluster", seed, shards); got != serial {
				t.Errorf("seed %d: cluster table at %d shards differs from serial.\n--- serial ---\n%s--- %d shards ---\n%s",
					seed, shards, serial, shards, got)
			}
		}
	}
}

func TestShardedMatchesSerialWatch(t *testing.T) {
	t.Parallel()
	// The watch rig layers span tracing, the SLO watchdog, and
	// attribution on top of the cluster — the richest cross-shard
	// observation surface. One seed keeps the runtime sane.
	if testing.Short() {
		t.Skip("watch rig at three shard widths")
	}
	serial := shardedTable(t, "watch", 1, 1)
	for _, shards := range []int{2, 4} {
		if got := shardedTable(t, "watch", 1, shards); got != serial {
			t.Errorf("watch table at %d shards differs from serial.\n--- serial ---\n%s--- %d shards ---\n%s",
				shards, serial, shards, got)
		}
	}
}

func TestShardedMatchesSerialScale(t *testing.T) {
	t.Parallel()
	// The scale rig exercises the multi-zone control plane: two-level
	// placement, the partitioned router with outage failover, and the
	// autoscaler admitting and retiring replicas mid-run — every one of
	// which crosses shard boundaries through the barrier protocol. A
	// 2-zone × 8-host rack must render identically on one engine and on
	// per-host engine pools.
	if testing.Short() {
		t.Skip("multi-zone rig at three shard widths")
	}
	serial := shardedTable(t, "scale", 1, 1)
	for _, shards := range []int{2, 4} {
		if got := shardedTable(t, "scale", 1, shards); got != serial {
			t.Errorf("scale table at %d shards differs from serial.\n--- serial ---\n%s--- %d shards ---\n%s",
				shards, serial, shards, got)
		}
	}
}
