package workload_test

import (
	"fmt"
	"testing"

	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestZeroWorkBarrierLoop runs a ParallelSpec with no compute and a
// barrier every iteration on a guest whose context switches and
// interrupts are free, so a woken thread is dispatched inside the
// wakeup and its zero-length next iteration re-enters the barrier
// before the releasing call returns. Every thread count from 1 to 8
// must finish every iteration with exactly the pinned run (runtime,
// engine events and total task CPU time), spinning and blocking, the
// latter with and without pre-sleep spinning. Runs that complete
// entirely inside Kernel.Start read runtime 0, and their engine then
// idles on to the horizon.
func TestZeroWorkBarrierLoop(t *testing.T) {
	want := map[string]string{
		"1/blocking/0ns":      "done=1 runtime=0 fired=4333 cpu=0",
		"1/blocking/40.000µs": "done=1 runtime=0 fired=4333 cpu=0",
		"1/spinning/0ns":      "done=1 runtime=0 fired=4333 cpu=0",
		"2/blocking/0ns":      "done=1 runtime=0 fired=4333 cpu=0",
		"2/blocking/40.000µs": "done=1 runtime=40000 fired=40 cpu=39000",
		"2/spinning/0ns":      "done=1 runtime=40000 fired=40 cpu=39000",
		"3/blocking/0ns":      "done=1 runtime=0 fired=4333 cpu=0",
		"3/blocking/40.000µs": "done=1 runtime=40000 fired=80 cpu=39000",
		"3/spinning/0ns":      "done=1 runtime=40000 fired=80 cpu=39000",
		"4/blocking/0ns":      "done=1 runtime=0 fired=4333 cpu=0",
		"4/blocking/40.000µs": "done=1 runtime=40000 fired=120 cpu=39000",
		"4/spinning/0ns":      "done=1 runtime=40000 fired=120 cpu=39000",
		"5/blocking/0ns":      "done=1 runtime=0 fired=4333 cpu=0",
		"5/blocking/40.000µs": "done=1 runtime=1601000 fired=160 cpu=6283000",
		"5/spinning/0ns":      "done=1 runtime=328001000 fired=951 cpu=1311676000",
		"6/blocking/0ns":      "done=1 runtime=0 fired=4333 cpu=0",
		"6/blocking/40.000µs": "done=1 runtime=1640000 fired=200 cpu=6439000",
		"6/spinning/0ns":      "done=1 runtime=328002000 fired=954 cpu=1311637000",
		"7/blocking/0ns":      "done=1 runtime=0 fired=4333 cpu=0",
		"7/blocking/40.000µs": "done=1 runtime=1640000 fired=240 cpu=6439000",
		"7/spinning/0ns":      "done=1 runtime=328002000 fired=954 cpu=1311598000",
		"8/blocking/0ns":      "done=1 runtime=0 fired=4333 cpu=0",
		"8/blocking/40.000µs": "done=1 runtime=1640000 fired=280 cpu=6439000",
		"8/spinning/0ns":      "done=1 runtime=328002000 fired=954 cpu=1311559000",
	}
	for threads := 1; threads <= 8; threads++ {
		for _, v := range []struct {
			mode workload.SyncMode
			spin sim.Time // SpinBeforeBlock
		}{
			{workload.SyncBlocking, 0},
			{workload.SyncBlocking, guest.DefaultConfig().SpinBeforeBlock},
			{workload.SyncSpinning, 0},
		} {
			mode := v.mode
			eng := sim.NewEngine()
			hv := hypervisor.New(eng, hypervisor.DefaultConfig(4))
			cfg := guest.DefaultConfig()
			cfg.CtxSwitchCost, cfg.IRQCost, cfg.SpinBeforeBlock = 0, 0, v.spin
			kern := guest.NewKernel(hv, hv.NewVM("vm", 4, 256, false), cfg)
			in := workload.NewParallel(kern, workload.ParallelSpec{
				Name: "zero", Threads: threads, Mode: mode, Iterations: 40, BarrierEvery: 1,
			}, 1)
			in.OnFinish = eng.Stop
			in.Start()
			for i, tk := range kern.Tasks() {
				tk.Affinity = kern.CPU(i % 4)
			}
			kern.Start()
			if err := eng.Run(10 * sim.Second); err != nil {
				t.Fatal(err)
			}
			var cpu sim.Time
			for _, tk := range kern.Tasks() {
				cpu += tk.CPUTime
			}
			key := fmt.Sprintf("%d/%s/%v", threads, mode, v.spin)
			got := fmt.Sprintf("done=%d runtime=%d fired=%d cpu=%d", in.Completions, in.Runtime(), eng.Fired(), cpu)
			if got != want[key] {
				t.Errorf("%s: %s, want %s", key, got, want[key])
			}
		}
	}
}
