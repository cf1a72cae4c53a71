package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestSeqPins(t *testing.T) {
	got := core.SeqPins(2, 3)
	want := []int{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SeqPins = %v, want %v", got, want)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	bench, _ := workload.ByName("EP")
	cases := []struct {
		name string
		scn  core.Scenario
	}{
		{"no pcpus", core.Scenario{VMs: []core.VMSpec{core.BenchmarkVM("fg", bench, 0, 1, nil)}}},
		{"no vms", core.Scenario{PCPUs: 2}},
		{"bad pin count", core.Scenario{PCPUs: 2, VMs: []core.VMSpec{
			core.BenchmarkVM("fg", bench, 0, 2, []int{0}),
		}}},
		{"pin out of range", core.Scenario{PCPUs: 2, VMs: []core.VMSpec{
			core.BenchmarkVM("fg", bench, 0, 1, []int{5}),
		}}},
		{"no workload", core.Scenario{PCPUs: 2, VMs: []core.VMSpec{{Name: "x", VCPUs: 1}}}},
	}
	for _, c := range cases {
		if _, err := core.Build(c.scn); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestRepeatRunsDistinctSeeds(t *testing.T) {
	bench, _ := workload.ByName("IS")
	var seeds []uint64
	var rts []float64
	err := core.Repeat(5, 3, func(i int, seed uint64) error {
		if i != len(seeds) {
			t.Fatalf("run %d called out of order", i)
		}
		seeds = append(seeds, seed)
		res, err := core.Run(core.Scenario{
			PCPUs:    4,
			Strategy: core.StrategyVanilla,
			Seed:     seed,
			VMs: []core.VMSpec{
				core.BenchmarkVM("fg", bench, workload.SyncSpinning, 4, core.SeqPins(0, 4)),
				core.HogVM("bg", 1, core.SeqPins(0, 1)),
			},
		})
		if err != nil {
			return err
		}
		rts = append(rts, res.VM("fg").Runtime.Seconds())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rts) != 3 || seeds[0] != 5 || seeds[1] == seeds[0] || seeds[2] == seeds[1] {
		t.Fatalf("runs %d, seeds %v", len(rts), seeds)
	}
	// Different seeds should give (slightly) different runtimes.
	if rts[0] == rts[1] && rts[1] == rts[2] {
		t.Fatal("all runs identical; seeds not varied")
	}
	stop := errors.New("stop")
	calls := 0
	if err := core.Repeat(1, 3, func(int, uint64) error { calls++; return stop }); err != stop || calls != 1 {
		t.Fatalf("Repeat after an error: err %v, %d calls", err, calls)
	}
}

func TestBackgroundVMRepeats(t *testing.T) {
	fgBench, _ := workload.ByName("EP")
	bgBench, _ := workload.ByName("IS")
	scn := core.Scenario{
		PCPUs:    4,
		Strategy: core.StrategyVanilla,
		VMs: []core.VMSpec{
			core.BenchmarkVM("fg", fgBench, workload.SyncBlocking, 4, core.SeqPins(0, 4)),
			core.BackgroundVM("bg", bgBench, workload.SyncSpinning, 2, core.SeqPins(0, 2)),
		},
	}
	res, err := core.Run(scn)
	if err != nil {
		t.Fatal(err)
	}
	bg := res.VM("bg")
	if bg.Completions < 1 {
		t.Fatal("background benchmark never completed")
	}
	if bg.MeanRuntime <= 0 {
		t.Fatal("no background mean runtime")
	}
	if res.VM("fg").Runtime <= 0 {
		t.Fatal("foreground did not finish")
	}
}

func TestServerVMStats(t *testing.T) {
	spec := workload.ServerSpec{
		Name: "s", Threads: 2, Service: 2 * sim.Millisecond, Duration: sim.Second,
	}
	res, err := core.Run(core.Scenario{
		PCPUs: 2, Strategy: core.StrategyVanilla,
		VMs: []core.VMSpec{core.ServerVM("fg", spec, 2, core.SeqPins(0, 2))},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := res.VM("fg").Instance.Server
	if stats == nil {
		t.Fatal("result carries no server stats")
	}
	if stats.Requests == 0 {
		t.Fatal("no requests")
	}
}

func TestResultVMLookup(t *testing.T) {
	bench, _ := workload.ByName("EP")
	res, err := core.Run(core.Scenario{
		PCPUs:    2,
		Strategy: core.StrategyVanilla,
		VMs:      []core.VMSpec{core.BenchmarkVM("only", bench, workload.SyncBlocking, 2, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VM("only") == nil {
		t.Fatal("VM lookup failed")
	}
	if res.VM("missing") != nil {
		t.Fatal("bogus VM lookup succeeded")
	}
}

func TestErrUnfinishedWrapped(t *testing.T) {
	bench, _ := workload.ByName("BT")
	scn := core.Scenario{
		PCPUs:    4,
		Strategy: core.StrategyVanilla,
		Horizon:  50 * sim.Millisecond,
		VMs:      []core.VMSpec{core.BenchmarkVM("fg", bench, 0, 4, core.SeqPins(0, 4))},
	}
	_, err := core.Run(scn)
	if !errors.Is(err, core.ErrUnfinished) {
		t.Fatalf("err = %v, want ErrUnfinished", err)
	}
}

func TestStrategiesOrder(t *testing.T) {
	ss := core.Strategies()
	if len(ss) != 4 {
		t.Fatalf("strategies = %v", ss)
	}
	if ss[0] != core.StrategyVanilla || ss[3] != core.StrategyIRS {
		t.Fatalf("unexpected order: %v", ss)
	}
}

func TestStrategyByNameRoundTrips(t *testing.T) {
	for _, s := range append(core.Strategies(), core.StrategyStrictCo) {
		if got, ok := core.StrategyByName(s.String()); !ok || got != s {
			t.Errorf("StrategyByName(%q) = %v, %v", s.String(), got, ok)
		}
	}
	if _, ok := core.StrategyByName("fifo"); ok {
		t.Error("StrategyByName accepted an unknown name")
	}
}

func TestUtilizationHelper(t *testing.T) {
	bench, _ := workload.ByName("EP")
	res, err := core.Run(core.Scenario{
		PCPUs:    2,
		Strategy: core.StrategyVanilla,
		VMs:      []core.VMSpec{core.BenchmarkVM("fg", bench, workload.SyncBlocking, 2, core.SeqPins(0, 2))},
	})
	if err != nil {
		t.Fatal(err)
	}
	util := core.Utilization(res, "fg", 2*res.Elapsed)
	if util < 0.9 || util > 1.01 {
		t.Fatalf("uncontended utilization = %.2f, want ~1", util)
	}
	if core.Utilization(res, "fg", 0) != 0 {
		t.Fatal("zero fair share should yield 0")
	}
	if core.Utilization(res, "nope", res.Elapsed) != 0 {
		t.Fatal("missing VM should yield 0")
	}
}
