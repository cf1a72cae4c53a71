package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden corpus pins the rendered output of every experiment table
// at Runs=1, Seed=1. Any change to the simulator, the scheduling
// strategies, the cluster layer, or the table rendering that shifts a
// single byte fails here; when the change is intentional, regenerate
// with:
//
//	go test ./internal/experiments -run TestGolden -update

var update = flag.Bool("update", false, "rewrite the golden experiment tables")

func goldenOptions() Options {
	return Options{Runs: 1, Seed: 1, Workers: 1}
}

// shortSkip names the four largest figure matrices, the slowest tables
// by far. -short runs (`make race`) skip them in TestGoldenTables:
// their jobs take the same measure path as the paper figures that
// still run.
var shortSkip = map[string]bool{"fig5": true, "fig6": true, "fig9": true, "fig12": true}

// TestGoldenTables renders every table once on the parallel harness
// and diffs it against the golden, which -update writes serially: one
// pass checks both drift and serial = parallel. The full serial-vs-
// parallel sweep at the determinism oracle's seed runs under the
// determinism build tag (`make determinism`).
func TestGoldenTables(t *testing.T) {
	t.Parallel()
	opt := goldenOptions()
	if !*update {
		opt.Workers = 4
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			if testing.Short() && !*update && shortSkip[id] {
				t.Skip("large figure matrix; skipped in -short")
			}
			t.Parallel()
			got := mustTable(t, id, opt).String()
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from golden.\n--- got ---\n%s--- want ---\n%s", id, got, want)
			}
		})
	}
}

func TestGoldenMatchesParallelHarness(t *testing.T) {
	// The goldens are generated serially; the parallel harness must
	// produce the identical bytes at a pool size that does not divide
	// the job lists evenly, too (TestGoldenTables uses 4 workers).
	t.Parallel()
	opt := goldenOptions()
	opt.Workers = 3
	for _, id := range []string{"fig1a", "cluster", "attack"} {
		want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatalf("no golden (run with -update to create): %v", err)
		}
		if mustTable(t, id, opt).String() != string(want) {
			t.Errorf("%s: 3-worker harness output differs from serial golden", id)
		}
	}
}

func TestGoldenDetectsPerturbation(t *testing.T) {
	// Sanity on the corpus itself: the pinned bytes really do depend on
	// the simulation, not just the headers — a different seed must not
	// match the seed-1 golden, for the cluster layer and for a paper
	// figure alike.
	for _, id := range []string{"cluster", "fig1a"} {
		want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Skipf("no golden: %v", err)
		}
		tb, _ := ByID(id, Options{Runs: 1, Seed: 99, Workers: 1})
		if tb.String() == string(want) {
			t.Fatalf("seed-99 %s table matches the seed-1 golden; corpus pins nothing", id)
		}
	}
}
