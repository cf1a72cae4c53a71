package guestsync_test

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/guestsync"
	"repro/internal/hypervisor"
	"repro/internal/sim"
)

// TestBarrierSurvivesSynchronousReentry drives a blocking barrier
// where every wakeup re-enters it before the waking call returns. With
// free context switches and interrupts, a task woken onto its own idle
// vCPU is dispatched inside WakeTask, and its zero-length next step
// goes straight back into Wait while the last arrival is still waking
// the others; the last arrival itself re-enters through its own
// continuation. Every task must still see every generation exactly
// once, in order, at 1–8 parties.
func TestBarrierSurvivesSynchronousReentry(t *testing.T) {
	const rounds = 50
	for n := 1; n <= 8; n++ {
		eng := sim.NewEngine()
		hv := hypervisor.New(eng, hypervisor.DefaultConfig(4))
		cfg := guest.DefaultConfig()
		cfg.CtxSwitchCost, cfg.IRQCost, cfg.SpinBeforeBlock = 0, 0, 0
		kern := guest.NewKernel(hv, hv.NewVM("vm", 4, 256, false), cfg)
		bar := guestsync.NewBarrier(kern, n)

		// waiting is the stack of Wait calls in progress; a call that
		// starts while another task's released Wait is on top of it was
		// entered from that release.
		type call struct {
			t   *guest.Task
			gen int64
		}
		var waiting []call
		fromRelease := 0
		seen := make([][]int64, n)
		for i := 0; i < n; i++ {
			ops := make([]func(*guest.Task, func()), rounds)
			for j := range ops {
				ops[j] = func(tk *guest.Task, resume func()) {
					if k := len(waiting); k > 0 && waiting[k-1].t != tk && bar.Generations > waiting[k-1].gen {
						fromRelease++
					}
					waiting = append(waiting, call{tk, bar.Generations})
					bar.Wait(tk, func() {
						seen[i] = append(seen[i], bar.Generations)
						resume()
					})
					waiting = waiting[:len(waiting)-1]
				}
			}
			kern.Spawn("b", &scripted{ops: ops}, i%4).Affinity = kern.CPU(i % 4)
		}
		runRig(t, eng, kern, sim.Second)
		if bar.Generations != rounds {
			t.Fatalf("n=%d: %d generations, want %d", n, bar.Generations, rounds)
		}
		for i, gens := range seen {
			for r, g := range gens {
				if g != int64(r+1) {
					t.Fatalf("n=%d: task %d left round %d in generation %d", n, i, r, g)
				}
			}
			if len(gens) != rounds {
				t.Fatalf("n=%d: task %d passed %d rounds, want %d", n, i, len(gens), rounds)
			}
		}
		if n > 1 && fromRelease == 0 {
			t.Fatalf("n=%d: no task re-entered the barrier while it was releasing", n)
		}
	}
}
