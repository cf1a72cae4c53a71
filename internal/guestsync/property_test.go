package guestsync_test

import (
	"testing"
	"testing/quick"

	"repro/internal/guest"
	"repro/internal/guestsync"
	"repro/internal/hypervisor"
	"repro/internal/sim"
)

// randomLockProg performs a random sequence of critical sections with
// random durations drawn from the seed, tracking invariants. Each
// section takes one of the locks at random: the adaptive mutex, the
// test-and-set spinlock or the ticket lock.
type randomLockProg struct {
	mu      *guestsync.Mutex
	sl, tl  *guestsync.SpinLock
	rng     *sim.RNG
	steps   int
	inCS    *[3]int
	maxCS   *[3]int
	entries *int
}

func (p *randomLockProg) Step(t *guest.Task) guest.Action {
	if p.steps <= 0 {
		return guest.Exit()
	}
	p.steps--
	outside := sim.Time(p.rng.Intn(2000)+1) * sim.Microsecond
	inside := sim.Time(p.rng.Intn(500)+1) * sim.Microsecond
	// Each lock guards its own critical-section counter; inCS and
	// maxCS are indexed by lock.
	idx := p.rng.Intn(3)
	return guest.RunThen(outside, func(tk *guest.Task, resume func()) {
		enter := func(unlock func(*guest.Task)) {
			(*p.inCS)[idx]++
			*p.entries++
			if (*p.inCS)[idx] > (*p.maxCS)[idx] {
				(*p.maxCS)[idx] = (*p.inCS)[idx]
			}
			tk.Kernel().RunInTask(tk, inside, func() {
				(*p.inCS)[idx]--
				unlock(tk)
				resume()
			})
		}
		switch idx {
		case 0:
			p.mu.Lock(tk, func() { enter(p.mu.Unlock) })
		case 1:
			p.sl.Lock(tk, func() { enter(p.sl.Unlock) })
		default:
			p.tl.Lock(tk, func() { enter(p.tl.Unlock) })
		}
	})
}

// hogProg computes forever: the interfering VM's threads.
type hogProg struct{}

func (hogProg) Step(*guest.Task) guest.Action { return guest.Run(sim.Millisecond) }

// interferedRig is rig with hogs CPU-hog vCPUs of a second VM pinned
// onto the first pCPUs, so the guest's vCPUs are preempted mid-spin
// and mid-critical-section, and with the guest's adaptive-spin budget
// set to spin (0 makes every blocking wait sleep at once).
func interferedRig(t *testing.T, nvcpus, hogs int, spin sim.Time) (*sim.Engine, *guest.Kernel) {
	t.Helper()
	eng := sim.NewEngine()
	hv := hypervisor.New(eng, hypervisor.DefaultConfig(nvcpus))
	vm := hv.NewVM("vm", nvcpus, 256, false)
	for i, v := range vm.VCPUs {
		v.Pin(hv.PCPU(i))
	}
	cfg := guest.DefaultConfig()
	cfg.SpinBeforeBlock = spin
	kern := guest.NewKernel(hv, vm, cfg)
	if hogs > 0 {
		bg := hv.NewVM("bg", hogs, 256, false)
		hk := guest.NewKernel(hv, bg, guest.DefaultConfig())
		for i, v := range bg.VCPUs {
			v.Pin(hv.PCPU(i))
			hk.Spawn("hog", hogProg{}, i)
		}
		hk.Start()
	}
	return eng, kern
}

// TestQuickMutualExclusionUnderRandomSchedules drives random mixes of
// blocking mutexes, test-and-set spinlocks and ticket locks across
// random interference patterns and adaptive-spin budgets, and checks
// mutual exclusion plus completion.
func TestQuickMutualExclusionUnderRandomSchedules(t *testing.T) {
	f := func(seed uint64, nTasksRaw, stepsRaw, hogsRaw uint8, sleepNow bool) bool {
		nTasks := int(nTasksRaw%4) + 2 // 2..5
		steps := int(stepsRaw%30) + 5  // 5..34
		spin := guest.DefaultConfig().SpinBeforeBlock
		if sleepNow {
			spin = 0
		}
		eng, kern := interferedRig(t, 2, int(hogsRaw%3), spin)
		mu := guestsync.NewMutex(kern)
		sl := guestsync.NewSpinLock(kern)
		tl := guestsync.NewTicketLock(kern)
		rng := sim.NewRNG(seed | 1)
		var inCS, maxCS [3]int
		entries := 0
		for i := 0; i < nTasks; i++ {
			p := &randomLockProg{
				mu: mu, sl: sl, tl: tl, rng: rng.Fork(uint64(i)),
				steps: steps, inCS: &inCS, maxCS: &maxCS, entries: &entries,
			}
			kern.Spawn("r", p, i%2)
		}
		done := false
		kern.OnAllExited = func() { done = true; eng.Stop() }
		kern.Start()
		if err := eng.Run(120 * sim.Second); err != nil {
			return false
		}
		return done && max(maxCS[0], maxCS[1], maxCS[2]) <= 1 && inCS == [3]int{} && entries == nTasks*steps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBarrierGenerations drives random barrier parties and rounds
// under random interference and adaptive-spin budgets.
func TestQuickBarrierGenerations(t *testing.T) {
	f := func(seed uint64, partyRaw, roundsRaw, hogsRaw uint8, sleepNow bool) bool {
		party := int(partyRaw%4) + 2 // 2..5
		rounds := int(roundsRaw%20) + 1
		spin := guest.DefaultConfig().SpinBeforeBlock
		if sleepNow {
			spin = 0
		}
		eng, kern := interferedRig(t, party, int(hogsRaw%3), spin)
		bar := guestsync.NewBarrier(kern, party)
		rng := sim.NewRNG(seed | 1)
		for i := 0; i < party; i++ {
			r := rng.Fork(uint64(i))
			ops := make([]func(*guest.Task, func()), rounds)
			for j := range ops {
				ops[j] = func(tk *guest.Task, resume func()) { bar.Wait(tk, resume) }
			}
			kern.Spawn("b", &scripted{ops: ops, gap: sim.Time(r.Intn(3000)+1) * sim.Microsecond}, i)
		}
		done := false
		kern.OnAllExited = func() { done = true; eng.Stop() }
		kern.Start()
		if err := eng.Run(120 * sim.Second); err != nil {
			return false
		}
		return done && int(bar.Generations) == rounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSpinBarrierGenerations does the same with active waiting.
func TestQuickSpinBarrierGenerations(t *testing.T) {
	f := func(seed uint64, roundsRaw uint8) bool {
		rounds := int(roundsRaw%15) + 1
		const party = 3
		eng, kern := rig(t, party)
		bar := guestsync.NewSpinBarrier(kern, party)
		rng := sim.NewRNG(seed | 1)
		for i := 0; i < party; i++ {
			r := rng.Fork(uint64(i))
			ops := make([]func(*guest.Task, func()), rounds)
			for j := range ops {
				ops[j] = func(tk *guest.Task, resume func()) { bar.Wait(tk, resume) }
			}
			kern.Spawn("s", &scripted{ops: ops, gap: sim.Time(r.Intn(3000)+1) * sim.Microsecond}, i)
		}
		done := false
		kern.OnAllExited = func() { done = true; eng.Stop() }
		kern.Start()
		if err := eng.Run(120 * sim.Second); err != nil {
			return false
		}
		return done && int(bar.Generations) == rounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTicketLockFIFOOrder verifies grant order matches arrival
// order for random arrival patterns.
func TestQuickTicketLockFIFOOrder(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%4) + 2
		eng, kern := rig(t, n)
		l := guestsync.NewTicketLock(kern)
		var order []int
		// A holder keeps the lock long enough for all others to queue.
		holder := &scripted{gap: sim.Millisecond, ops: []func(*guest.Task, func()){
			func(tk *guest.Task, resume func()) {
				l.Lock(tk, func() {
					tk.Kernel().RunInTask(tk, 50*sim.Millisecond, func() {
						l.Unlock(tk)
						resume()
					})
				})
			},
		}}
		kern.Spawn("h", holder, 0)
		rng := sim.NewRNG(seed | 1)
		delays := make([]sim.Time, n)
		base := 2 * sim.Millisecond
		for i := 1; i < n; i++ {
			delays[i] = base + sim.Time(i)*sim.Millisecond + sim.Time(rng.Intn(300))*sim.Microsecond
			w := &scripted{gap: delays[i], ops: []func(*guest.Task, func()){
				func(tk *guest.Task, resume func()) {
					l.Lock(tk, func() {
						order = append(order, i)
						l.Unlock(tk)
						resume()
					})
				},
			}}
			kern.Spawn("w", w, i%n)
		}
		done := false
		kern.OnAllExited = func() { done = true; eng.Stop() }
		kern.Start()
		if err := eng.Run(60 * sim.Second); err != nil {
			return false
		}
		if !done || len(order) != n-1 {
			return false
		}
		for i := 1; i < len(order); i++ {
			if order[i-1] > order[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
