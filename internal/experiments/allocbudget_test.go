package experiments

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/topology"
)

// outageRunAllocBudget bounds the bytes the 2z8h outage rig allocates
// inside one seed-1 Run, always-on watchdog included: about 1.25× the
// 1,158,500 B measured with 64-event host rings and the occupancy feed
// indexed by VM and pCPU (4,096-event rings read 3.8 MB).
const outageRunAllocBudget = 1_450_000

// outageRunAlloc builds the 2z8h outage rig at seed and returns the
// bytes allocated inside its Run, the least of three runs: the counter
// is process-wide, so another goroutine can add to it but never take
// from it.
func outageRunAlloc(t *testing.T, seed uint64) uint64 {
	t.Helper()
	spec, err := topology.ParseLoadSpec(ScaleOutageSpec)
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		cfg, err := ScaleConfig(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := c.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violations != 0 || res.Unserved != 0 {
			t.Fatalf("%d invariant violations, %d unserved requests", res.Violations, res.Unserved)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestOutageRunAllocBudget is the watch instrument's CI budget: the
// rack rigs keep the watchdog always on, so what Run allocates bounds
// what it costs per run.
func TestOutageRunAllocBudget(t *testing.T) {
	got := outageRunAlloc(t, 1)
	t.Logf("2z8h-outage seed 1 allocated %d B inside Run (budget %d B)", got, outageRunAllocBudget)
	if got > outageRunAllocBudget {
		t.Fatalf("2z8h-outage seed 1 allocated %d B inside Run, over the %d B budget", got, outageRunAllocBudget)
	}
}
