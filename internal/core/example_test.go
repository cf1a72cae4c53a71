package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// ExampleRun demonstrates the standard interference scenario: a 4-vCPU
// VM running a barrier workload against one CPU hog, under IRS.
func ExampleRun() {
	bench, _ := workload.ByName("EP")
	fg := core.BenchmarkVM("fg", bench, workload.SyncBlocking, 4, core.SeqPins(0, 4))
	fg.IRS = true

	res, err := core.Run(core.Scenario{
		PCPUs:    4,
		Strategy: core.StrategyIRS,
		Seed:     1,
		VMs: []core.VMSpec{
			fg,
			core.HogVM("bg", 1, core.SeqPins(0, 1)),
		},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("finished:", res.VM("fg").Runtime > 0)
	fmt.Println("SAs acknowledged:", res.SAAcked > 0)
	// Output:
	// finished: true
	// SAs acknowledged: true
}

// ExampleParseHostSpec writes the same rig as ExampleRun in spec text,
// one section a line, and compiles it.
func ExampleParseHostSpec() {
	spec, err := core.ParseHostSpec(`
		host:pcpus=4,strategy=irs
		vm:name=fg,kind=bench,bench=EP,mode=block,vcpus=4,irs=on  # pinned to pCPUs 0-3
		vm:name=bg,kind=hog,vcpus=1                               # one hog on pCPU 0`)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(spec)
	res, err := core.Run(spec.Scenario(1))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("finished:", res.VM("fg").Runtime > 0)
	fmt.Println("SAs acknowledged:", res.SAAcked > 0)
	// Output:
	// host:pcpus=4,strategy=irs; vm:name=fg,kind=bench,bench=EP,mode=block,vcpus=4,irs=on; vm:name=bg,kind=hog,vcpus=1
	// finished: true
	// SAs acknowledged: true
}

// ExampleScenario_baselines compares all four scheduling strategies on
// one workload.
func ExampleScenario_baselines() {
	bench, _ := workload.ByName("EP")
	var base float64
	for _, strat := range core.Strategies() {
		fg := core.BenchmarkVM("fg", bench, workload.SyncBlocking, 4, core.SeqPins(0, 4))
		fg.IRS = strat == core.StrategyIRS
		res, err := core.Run(core.Scenario{
			PCPUs:    4,
			Strategy: strat,
			Seed:     1,
			VMs: []core.VMSpec{
				fg,
				core.HogVM("bg", 1, core.SeqPins(0, 1)),
			},
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		rt := res.VM("fg").Runtime.Seconds()
		if strat == core.StrategyVanilla {
			base = rt
		}
		fmt.Printf("%s beats vanilla: %v\n", strat, rt < base*0.99)
	}
	// Output:
	// vanilla beats vanilla: false
	// ple beats vanilla: false
	// relaxed-co beats vanilla: true
	// irs beats vanilla: true
}
