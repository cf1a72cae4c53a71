package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func fastOpts() Options { return Options{Runs: 1, Seed: 1} }

func TestTableRendering(t *testing.T) {
	tb := Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bbb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	s := tb.String()
	if !strings.Contains(s, "== x: demo ==") {
		t.Fatalf("missing header: %q", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4", len(lines))
	}
	// Columns align: every row has the same width.
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("misaligned rows: %q vs %q", lines[1], lines[2])
	}
}

// mustTable runs one registered experiment.
func mustTable(t *testing.T, id string, opt Options) Table {
	t.Helper()
	tb, ok := ByID(id, opt)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	return tb
}

func TestIDsAllResolve(t *testing.T) {
	// Only checks registration, not execution (TestGoldenTables runs
	// every table).
	seen := map[string]bool{}
	for _, e := range registry {
		for _, id := range append([]string{e.id}, e.aliases...) {
			if id == "" || seen[id] {
				t.Fatalf("empty or duplicate id %q", id)
			}
			seen[id] = true
		}
	}
	if _, ok := ByID("nope", fastOpts()); ok {
		t.Fatal("bogus id resolved")
	}
	if tb, ok := ByID("TAB-SA", fastOpts()); !ok || tb.ID != "sadelay" {
		t.Fatalf("alias TAB-SA resolved to %q (ok %v), want sadelay", tb.ID, ok)
	}
}

func TestFig1aShape(t *testing.T) {
	tb := mustTable(t, "fig1a", fastOpts())
	if len(tb.Rows) != 3 {
		t.Fatalf("fig1a rows = %d, want 3", len(tb.Rows))
	}
	slow := map[string]float64{}
	for _, r := range tb.Rows {
		var v float64
		if _, err := sscanf(r[1], &v); err != nil {
			t.Fatalf("bad slowdown cell %q", r[1])
		}
		slow[r[0]] = v
	}
	// Figure 1(a): ua and fluidanimate slow down substantially;
	// raytrace stays near 1.
	if slow["UA"] < 1.5 {
		t.Fatalf("UA slowdown %.2f, want >= 1.5", slow["UA"])
	}
	if slow["fluidanimate"] < 1.3 {
		t.Fatalf("fluidanimate slowdown %.2f, want >= 1.3", slow["fluidanimate"])
	}
	if slow["raytrace"] > 1.45 {
		t.Fatalf("raytrace slowdown %.2f, want resilient (< 1.45)", slow["raytrace"])
	}
	if slow["raytrace"] >= slow["UA"] {
		t.Fatal("raytrace should be more resilient than UA")
	}
}

func TestFig1bStaircase(t *testing.T) {
	tb := mustTable(t, "fig1b", fastOpts())
	if len(tb.Rows) != 4 {
		t.Fatalf("fig1b rows = %d", len(tb.Rows))
	}
	var lats []float64
	for _, r := range tb.Rows {
		var v float64
		if _, err := sscanf(strings.TrimSuffix(r[1], "ms"), &v); err != nil {
			t.Fatalf("bad latency cell %q", r[1])
		}
		lats = append(lats, v)
	}
	// Monotonically increasing staircase; alone is ~instant, each VM
	// adds on the order of a scheduling delay.
	for i := 1; i < len(lats); i++ {
		if lats[i] <= lats[i-1] {
			t.Fatalf("staircase not increasing: %v", lats)
		}
	}
	if lats[0] > 2 {
		t.Fatalf("alone latency %.1fms, want ~0-1ms", lats[0])
	}
	if lats[1] < 10 {
		t.Fatalf("1VM latency %.1fms, want >= 10ms (one Xen slice)", lats[1])
	}
}

func TestSADelayInPaperRange(t *testing.T) {
	tb := mustTable(t, "sadelay", fastOpts())
	var mean string
	for _, r := range tb.Rows {
		if r[0] == "mean SA delay" {
			mean = r[1]
		}
	}
	if mean == "" {
		t.Fatal("no mean SA delay row")
	}
	if !strings.Contains(mean, "µs") {
		t.Fatalf("mean SA delay %q not in microseconds", mean)
	}
	var v float64
	if _, err := sscanf(strings.TrimSuffix(mean, "µs"), &v); err != nil {
		t.Fatalf("bad delay %q", mean)
	}
	// Paper: 20-26µs.
	if v < 10 || v > 40 {
		t.Fatalf("mean SA delay %.1fµs, want 10-40", v)
	}
}

func TestHarnessCachesBaselines(t *testing.T) {
	h := newHarness(fastOpts())
	bench, _ := workload.ByName("EP")
	s := setup{bench: bench, mode: workload.SyncBlocking, inter: hogs(1)}
	base := s
	base.strat = StrategyVanillaForTest()
	p1 := h.measure(base)
	p2 := h.measure(base)
	if p1 != p2 {
		t.Fatal("cache miss for identical setup")
	}
	if len(h.cache) != 1 {
		t.Fatalf("cache has %d entries, want 1", len(h.cache))
	}
}

func TestImprovementSymmetry(t *testing.T) {
	// improvement(vanilla vs vanilla) must be ~0.
	h := newHarness(fastOpts())
	bench, _ := workload.ByName("EP")
	s := setup{bench: bench, mode: workload.SyncBlocking, inter: hogs(1)}
	if imp := h.improvement(s, StrategyVanillaForTest()); imp != 0 {
		t.Fatalf("vanilla self-improvement = %.2f, want 0", imp)
	}
}

func sscanf(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}

// StrategyVanillaForTest avoids importing core in every assertion site.
func StrategyVanillaForTest() core.Strategy { return core.StrategyVanilla }
