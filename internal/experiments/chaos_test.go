package experiments

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

func chaosRunOne(t *testing.T, idx int, rate float64) (*core.Result, error) {
	t.Helper()
	reg := obs.NewRegistry()
	scn, err := chaosScenario(1, rate, chaosVariants()[idx], reg)
	if err != nil {
		t.Fatal(err)
	}
	return core.Run(scn)
}

// Identical seed + plan must reproduce byte-identical exports: the
// injector's forked RNG streams keep chaos runs fully deterministic.
func TestChaosDeterministicExports(t *testing.T) {
	t.Parallel()
	run := func() (string, string) {
		reg := obs.NewRegistry()
		scn, err := chaosScenario(1, 0.10, chaosVariants()[4], reg) // irs-hardened
		if err != nil {
			t.Fatal(err)
		}
		scn.SampleInterval = 10 * sim.Millisecond
		cl, err := core.Build(scn)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		if _, err := cl.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		var prom, csv bytes.Buffer
		if err := obs.WritePrometheus(&prom, reg); err != nil {
			t.Fatalf("prometheus: %v", err)
		}
		if err := obs.WriteCSV(&csv, cl.Sampler); err != nil {
			t.Fatalf("csv: %v", err)
		}
		return prom.String(), csv.String()
	}
	p1, c1 := run()
	p2, c2 := run()
	if len(p1) == 0 || len(c1) == 0 {
		t.Fatal("empty export")
	}
	if p1 != p2 {
		t.Error("prometheus exports differ between identical chaos runs")
	}
	if c1 != c2 {
		t.Error("CSV exports differ between identical chaos runs")
	}
}

// The headline robustness claim: at 10% SA vIRQ loss the hardened IRS
// guest still beats vanilla, the unhardened one measurably lags it,
// and at 25% the unhardened protocol stalls outright (a dropped wakeup
// strands an idle vCPU) while the hardened one completes. Consistency
// never breaks: every checker-attached run reports zero violations.
func TestChaosHardeningHolds(t *testing.T) {
	vanilla, errV := chaosRunOne(t, 0, 0.10)
	unhard, errU := chaosRunOne(t, 3, 0.10)
	hard, errH := chaosRunOne(t, 4, 0.10)
	for name, err := range map[string]error{"vanilla": errV, "irs": errU, "irs-hardened": errH} {
		if err != nil {
			t.Fatalf("%s at 10%% loss did not finish: %v", name, err)
		}
	}
	for name, res := range map[string]*core.Result{"vanilla": vanilla, "irs": unhard, "irs-hardened": hard} {
		if res.Violations != 0 {
			t.Errorf("%s: %d invariant violations under fault injection", name, res.Violations)
		}
	}
	if h, v := hard.VM("fg").Runtime, vanilla.VM("fg").Runtime; h > v {
		t.Errorf("hardened IRS runtime %v exceeds vanilla %v at 10%% loss", h, v)
	}
	if u, h := unhard.VM("fg").Runtime, hard.VM("fg").Runtime; u <= h {
		t.Errorf("unhardened IRS runtime %v not behind hardened %v — hardening shows no benefit", u, h)
	}

	if _, err := chaosRunOne(t, 3, 0.25); !errors.Is(err, core.ErrUnfinished) {
		t.Errorf("unhardened IRS at 25%% loss: err = %v, want ErrUnfinished stall", err)
	}
	h25, err := chaosRunOne(t, 4, 0.25)
	if err != nil {
		t.Fatalf("hardened IRS at 25%% loss did not finish: %v", err)
	}
	if h25.Violations != 0 {
		t.Errorf("hardened IRS at 25%% loss: %d violations", h25.Violations)
	}
	k := h25.VM("fg").Kernel
	if k.SADupSuppressed+k.MigratorRetried+k.WakePollRecoveries == 0 {
		t.Error("hardened run recovered nothing — defenses never engaged")
	}
}

// The registered table keeps every cell consistent and marks only
// unhardened-IRS high-loss rows as stalled.
func TestChaosTable(t *testing.T) {
	tb, ok := ByID("chaos", fastOpts())
	if !ok {
		t.Fatal("chaos not registered in ByID")
	}
	if len(tb.Rows) != len(chaosRates())*len(chaosVariants()) {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), len(chaosRates())*len(chaosVariants()))
	}
	for _, row := range tb.Rows {
		if got := row[len(row)-1]; got != "0" {
			t.Errorf("row %v: violations = %s, want 0", row, got)
		}
		if row[1] == "irs-hardened" && row[2] == "stalled" {
			t.Errorf("hardened variant stalled at rate %s", row[0])
		}
		if row[0] == "0%" && row[len(row)-2] != "0" {
			t.Errorf("control row %v injected faults", row)
		}
	}
}
