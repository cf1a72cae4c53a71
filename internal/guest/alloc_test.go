package guest

import (
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/sim"
)

// Zero-allocation pins for the guest kernel's per-event paths: segment
// start/complete (through a program step), timer-interrupt entry and
// the execAfter continuation. Their callbacks are bound once per CPU or
// task, and execAfter recycles its tokens, so steady-state execution
// must allocate nothing.

// loopProg computes forever in chunks, alternating plain compute steps
// with steps that finish through an Action.Done callback.
type loopProg struct {
	chunk sim.Time
	steps int
}

// resumeNow is a Done callback that continues immediately.
var resumeNow = func(_ *Task, resume func()) { resume() }

func (p *loopProg) Step(*Task) Action {
	p.steps++
	if p.steps%2 == 0 {
		return RunThen(p.chunk, resumeNow)
	}
	return Run(p.chunk)
}

// allocRig boots a 1-vCPU guest on its own pCPU running one loopProg
// task, warmed past start-up.
func allocRig(t *testing.T) (*sim.Engine, *Kernel, *loopProg) {
	t.Helper()
	eng := sim.NewEngine()
	hv := hypervisor.New(eng, hypervisor.DefaultConfig(1))
	k := NewKernel(hv, hv.NewVM("vm0", 1, 256, false), DefaultConfig())
	prog := &loopProg{chunk: 100 * sim.Microsecond}
	k.Spawn("loop", prog, 0)
	k.Start()
	runFor(t, eng, 50*sim.Millisecond)
	return eng, k, prog
}

func runFor(t *testing.T, eng *sim.Engine, d sim.Time) {
	t.Helper()
	if err := eng.Run(eng.Now() + d); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentZeroAllocs: program steps arm compute segments whose
// completions run the next step; guest ticks interrupt them every 4 ms.
func TestSegmentZeroAllocs(t *testing.T) {
	eng, k, prog := allocRig(t)
	before, ticks := prog.steps, k.CPU(0).TicksRun
	allocs := testing.AllocsPerRun(100, func() { runFor(t, eng, sim.Millisecond) })
	if allocs != 0 {
		t.Fatalf("segment start/complete allocates %v allocs/op, want 0", allocs)
	}
	if prog.steps-before < 500 {
		t.Fatalf("only %d program steps in 101 ms of 100 µs segments", prog.steps-before)
	}
	if k.CPU(0).TicksRun == ticks {
		t.Fatal("no guest ticks while measuring")
	}
}

// TestExecAfterZeroAllocs schedules a continuation and lets it fire.
func TestExecAfterZeroAllocs(t *testing.T) {
	eng, k, _ := allocRig(t)
	c := k.CPU(0)
	fired := 0
	fn := func() { fired++ }
	allocs := testing.AllocsPerRun(100, func() {
		c.execAfter(5*sim.Microsecond, fn)
		runFor(t, eng, 5*sim.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("execAfter allocates %v allocs/op, want 0", allocs)
	}
	if fired != 101 {
		t.Fatalf("continuation ran %d times, want 101", fired)
	}
}

// TestExecAfterDropsStaleContinuation: an interrupt between scheduling
// and firing (execGen bump) turns the continuation into a no-op, while
// its token still returns to the free list.
func TestExecAfterDropsStaleContinuation(t *testing.T) {
	eng, k, _ := allocRig(t)
	c := k.CPU(0)
	fired := 0
	c.execAfter(5*sim.Microsecond, func() { fired++ })
	free := len(c.contFree)
	c.TakeIRQ(hypervisor.IRQKick)
	runFor(t, eng, 5*sim.Microsecond)
	if fired != 0 {
		t.Fatal("stale continuation ran after an interrupt")
	}
	if len(c.contFree) <= free {
		t.Fatal("stale continuation's token was not recycled")
	}
}
