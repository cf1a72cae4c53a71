package guestsync_test

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/guestsync"
	"repro/internal/hypervisor"
	"repro/internal/sim"
)

// rig builds one VM with nvcpus vCPUs on nvcpus pCPUs.
func rig(t *testing.T, nvcpus int) (*sim.Engine, *guest.Kernel) {
	t.Helper()
	eng := sim.NewEngine()
	hv := hypervisor.New(eng, hypervisor.DefaultConfig(nvcpus))
	vm := hv.NewVM("vm", nvcpus, 256, false)
	kern := guest.NewKernel(hv, vm, guest.DefaultConfig())
	return eng, kern
}

// scripted runs a sequence of ops, each a func(t, resume).
type scripted struct {
	ops []func(t *guest.Task, resume func())
	i   int
	gap sim.Time
}

func (p *scripted) Step(t *guest.Task) guest.Action {
	if p.i >= len(p.ops) {
		return guest.Exit()
	}
	op := p.ops[p.i]
	p.i++
	return guest.RunThen(p.gap, op)
}

func runRig(t *testing.T, eng *sim.Engine, kern *guest.Kernel, horizon sim.Time) {
	t.Helper()
	done := false
	kern.OnAllExited = func() { done = true; eng.Stop() }
	kern.Start()
	if err := eng.Run(horizon); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !done {
		t.Fatal("tasks did not finish")
	}
}

func TestMutexProvidesMutualExclusion(t *testing.T) {
	eng, kern := rig(t, 2)
	mu := guestsync.NewMutex(kern)
	inCS := 0
	maxIn := 0
	op := func(tk *guest.Task, resume func()) {
		mu.Lock(tk, func() {
			inCS++
			if inCS > maxIn {
				maxIn = inCS
			}
			tk.Kernel().RunInTask(tk, sim.Millisecond, func() {
				inCS--
				mu.Unlock(tk)
				resume()
			})
		})
	}
	for i := 0; i < 2; i++ {
		ops := make([]func(*guest.Task, func()), 20)
		for j := range ops {
			ops[j] = op
		}
		kern.Spawn("m", &scripted{ops: ops, gap: sim.Millisecond}, i)
	}
	runRig(t, eng, kern, 10*sim.Second)
	if maxIn != 1 {
		t.Fatalf("max tasks in critical section = %d, want 1", maxIn)
	}
	if mu.Acquires != 40 {
		t.Fatalf("acquires = %d, want 40", mu.Acquires)
	}
}

func TestMutexHandoffIsFIFOForSleepers(t *testing.T) {
	eng, kern := rig(t, 4)
	mu := guestsync.NewMutex(kern)
	var order []int
	// Task 0 takes the lock and holds it; tasks 1..3 queue up.
	holder := &scripted{gap: sim.Millisecond, ops: []func(*guest.Task, func()){
		func(tk *guest.Task, resume func()) {
			mu.Lock(tk, func() {
				tk.Kernel().RunInTask(tk, 50*sim.Millisecond, func() {
					mu.Unlock(tk)
					resume()
				})
			})
		},
	}}
	kern.Spawn("holder", holder, 0)
	for i := 1; i < 4; i++ {
		w := &scripted{gap: sim.Time(i) * 2 * sim.Millisecond, ops: []func(*guest.Task, func()){
			func(tk *guest.Task, resume func()) {
				mu.Lock(tk, func() {
					order = append(order, i)
					mu.Unlock(tk)
					resume()
				})
			},
		}}
		kern.Spawn("w", w, i)
	}
	runRig(t, eng, kern, 10*sim.Second)
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] > order[i] {
			t.Fatalf("sleepers woken out of order: %v", order)
		}
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	eng, kern := rig(t, 2)
	mu := guestsync.NewMutex(kern)
	cond := guestsync.NewCond(kern)
	woken := 0
	waiter := &scripted{gap: sim.Millisecond, ops: []func(*guest.Task, func()){
		func(tk *guest.Task, resume func()) {
			mu.Lock(tk, func() {
				cond.Wait(tk, mu, func() {
					woken++
					mu.Unlock(tk)
					resume()
				})
			})
		},
	}}
	kern.Spawn("waiter", waiter, 0)
	signaler := &scripted{gap: 10 * sim.Millisecond, ops: []func(*guest.Task, func()){
		func(tk *guest.Task, resume func()) {
			mu.Lock(tk, func() {
				cond.Signal()
				mu.Unlock(tk)
				resume()
			})
		},
	}}
	kern.Spawn("signaler", signaler, 1)
	runRig(t, eng, kern, 5*sim.Second)
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	eng, kern := rig(t, 4)
	mu := guestsync.NewMutex(kern)
	cond := guestsync.NewCond(kern)
	woken := 0
	for i := 0; i < 3; i++ {
		w := &scripted{gap: sim.Millisecond, ops: []func(*guest.Task, func()){
			func(tk *guest.Task, resume func()) {
				mu.Lock(tk, func() {
					cond.Wait(tk, mu, func() {
						woken++
						mu.Unlock(tk)
						resume()
					})
				})
			},
		}}
		kern.Spawn("w", w, i)
	}
	b := &scripted{gap: 20 * sim.Millisecond, ops: []func(*guest.Task, func()){
		func(tk *guest.Task, resume func()) {
			mu.Lock(tk, func() {
				cond.Broadcast()
				mu.Unlock(tk)
				resume()
			})
		},
	}}
	kern.Spawn("b", b, 3)
	runRig(t, eng, kern, 5*sim.Second)
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestBlockingBarrierReleasesAllGenerations(t *testing.T) {
	eng, kern := rig(t, 4)
	bar := guestsync.NewBarrier(kern, 4)
	const rounds = 15
	for i := 0; i < 4; i++ {
		ops := make([]func(*guest.Task, func()), rounds)
		for j := range ops {
			ops[j] = func(tk *guest.Task, resume func()) { bar.Wait(tk, resume) }
		}
		kern.Spawn("w", &scripted{ops: ops, gap: sim.Time(i+1) * sim.Millisecond}, i)
	}
	runRig(t, eng, kern, 30*sim.Second)
	if bar.Generations != rounds {
		t.Fatalf("generations = %d, want %d", bar.Generations, rounds)
	}
}

func TestSpinBarrierBurnsCPUWhileWaiting(t *testing.T) {
	eng, kern := rig(t, 2)
	bar := guestsync.NewSpinBarrier(kern, 2)
	// Task 0 arrives immediately and spins ~50ms for task 1.
	fast := &scripted{gap: sim.Millisecond, ops: []func(*guest.Task, func()){
		func(tk *guest.Task, resume func()) { bar.Wait(tk, resume) },
	}}
	slow := &scripted{gap: 50 * sim.Millisecond, ops: []func(*guest.Task, func()){
		func(tk *guest.Task, resume func()) { bar.Wait(tk, resume) },
	}}
	t0 := kern.Spawn("fast", fast, 0)
	kern.Spawn("slow", slow, 1)
	runRig(t, eng, kern, 5*sim.Second)
	if bar.Generations != 1 {
		t.Fatalf("generations = %d", bar.Generations)
	}
	// The fast task burned ~50ms of CPU spinning.
	if t0.CPUTime < 45*sim.Millisecond {
		t.Fatalf("fast task CPU %v, want ~50ms of spinning", t0.CPUTime)
	}
}

func TestBlockingBarrierIdlesWhileWaiting(t *testing.T) {
	eng, kern := rig(t, 2)
	bar := guestsync.NewBarrier(kern, 2)
	fast := &scripted{gap: sim.Millisecond, ops: []func(*guest.Task, func()){
		func(tk *guest.Task, resume func()) { bar.Wait(tk, resume) },
	}}
	slow := &scripted{gap: 50 * sim.Millisecond, ops: []func(*guest.Task, func()){
		func(tk *guest.Task, resume func()) { bar.Wait(tk, resume) },
	}}
	t0 := kern.Spawn("fast", fast, 0)
	kern.Spawn("slow", slow, 1)
	runRig(t, eng, kern, 5*sim.Second)
	// The fast task slept: only the adaptive pre-sleep spin burned CPU.
	if t0.CPUTime > 5*sim.Millisecond {
		t.Fatalf("fast task CPU %v; blocking waiter should sleep", t0.CPUTime)
	}
}

func TestTASSpinLockExcludesAndCompletes(t *testing.T) {
	eng, kern := rig(t, 2)
	l := guestsync.NewSpinLock(kern)
	inCS, maxIn, total := 0, 0, 0
	op := func(tk *guest.Task, resume func()) {
		l.Lock(tk, func() {
			inCS++
			total++
			if inCS > maxIn {
				maxIn = inCS
			}
			tk.Kernel().RunInTask(tk, 500*sim.Microsecond, func() {
				inCS--
				l.Unlock(tk)
				resume()
			})
		})
	}
	for i := 0; i < 2; i++ {
		ops := make([]func(*guest.Task, func()), 25)
		for j := range ops {
			ops[j] = op
		}
		kern.Spawn("s", &scripted{ops: ops, gap: sim.Millisecond}, i)
	}
	runRig(t, eng, kern, 10*sim.Second)
	if maxIn != 1 {
		t.Fatalf("mutual exclusion violated: %d", maxIn)
	}
	if total != 50 {
		t.Fatalf("total acquisitions = %d, want 50", total)
	}
}

func TestTicketLockIsFIFO(t *testing.T) {
	eng, kern := rig(t, 4)
	l := guestsync.NewTicketLock(kern)
	var order []int
	// Holder grabs the lock; three tasks queue in a known order.
	holder := &scripted{gap: sim.Millisecond, ops: []func(*guest.Task, func()){
		func(tk *guest.Task, resume func()) {
			l.Lock(tk, func() {
				tk.Kernel().RunInTask(tk, 30*sim.Millisecond, func() {
					l.Unlock(tk)
					resume()
				})
			})
		},
	}}
	kern.Spawn("holder", holder, 0)
	for i := 1; i < 4; i++ {
		w := &scripted{gap: sim.Time(i) * 2 * sim.Millisecond, ops: []func(*guest.Task, func()){
			func(tk *guest.Task, resume func()) {
				l.Lock(tk, func() {
					order = append(order, i)
					l.Unlock(tk)
					resume()
				})
			},
		}}
		kern.Spawn("w", w, i)
	}
	runRig(t, eng, kern, 10*sim.Second)
	for i := 1; i < len(order); i++ {
		if order[i-1] > order[i] {
			t.Fatalf("ticket order violated: %v", order)
		}
	}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSpinLockCountsContention(t *testing.T) {
	eng, kern := rig(t, 2)
	l := guestsync.NewSpinLock(kern)
	op := func(tk *guest.Task, resume func()) {
		l.Lock(tk, func() {
			tk.Kernel().RunInTask(tk, 2*sim.Millisecond, func() {
				l.Unlock(tk)
				resume()
			})
		})
	}
	for i := 0; i < 2; i++ {
		ops := make([]func(*guest.Task, func()), 10)
		for j := range ops {
			ops[j] = op
		}
		kern.Spawn("s", &scripted{ops: ops, gap: 0}, i)
	}
	runRig(t, eng, kern, 10*sim.Second)
	if l.Contentions == 0 {
		t.Fatal("no contention recorded for overlapping critical sections")
	}
}

func TestUnlockByNonOwnerPanics(t *testing.T) {
	eng, kern := rig(t, 1)
	mu := guestsync.NewMutex(kern)
	panicked := false
	p := &scripted{gap: sim.Millisecond, ops: []func(*guest.Task, func()){
		func(tk *guest.Task, resume func()) {
			defer func() {
				if recover() != nil {
					panicked = true
				}
				resume()
			}()
			mu.Unlock(tk)
		},
	}}
	kern.Spawn("bad", p, 0)
	runRig(t, eng, kern, sim.Second)
	if !panicked {
		t.Fatal("unlock of unheld mutex did not panic")
	}
}
