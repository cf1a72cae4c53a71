package workload_test

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Zero-allocation pins for the workload programs: each rig warms a
// workload to steady state, then requires every further millisecond of
// virtual time to allocate nothing. The programs bind their callbacks
// once and keep an iteration's state in fields, and the guestsync
// primitives below them reuse their wait lists, so a regression here
// means a closure is being built per iteration or per request again.

// interferedRig boots a 4-vCPU guest, one vCPU pinned per pCPU, next
// to a 2-vCPU CPU-hog VM sharing the first two pCPUs, so the workload
// sees vCPU preemption: lock-holder and lock-waiter preemption, spin
// timeouts, and block/wake across CPUs.
func interferedRig(t *testing.T) (*sim.Engine, *guest.Kernel) {
	t.Helper()
	eng := sim.NewEngine()
	hv := hypervisor.New(eng, hypervisor.DefaultConfig(4))
	fg := hv.NewVM("fg", 4, 256, false)
	for i, v := range fg.VCPUs {
		v.Pin(hv.PCPU(i))
	}
	bg := hv.NewVM("bg", 2, 256, false)
	for i, v := range bg.VCPUs {
		v.Pin(hv.PCPU(i))
	}
	hogs := guest.NewKernel(hv, bg, guest.DefaultConfig())
	workload.NewHog(hogs, 2).Start()
	hogs.Start()
	return eng, guest.NewKernel(hv, fg, guest.DefaultConfig())
}

// cpuTime sums the CPU time of kern's tasks: the progress probe.
func cpuTime(kern *guest.Kernel) sim.Time {
	var sum sim.Time
	for _, t := range kern.Tasks() {
		sum += t.CPUTime
	}
	return sum
}

// pinZeroAllocs starts in on kern, warms it for 100 ms of virtual
// time, and fails if a further 1 ms step allocates, or if the
// workload's tasks stop running or finish while being measured.
func pinZeroAllocs(t *testing.T, eng *sim.Engine, kern *guest.Kernel, in *workload.Instance) {
	t.Helper()
	in.Start()
	kern.Start()
	step := func(d sim.Time) {
		if err := eng.Run(eng.Now() + d); err != nil {
			t.Fatal(err)
		}
	}
	step(100 * sim.Millisecond)
	before := cpuTime(kern)
	if allocs := testing.AllocsPerRun(100, func() { step(sim.Millisecond) }); allocs != 0 {
		t.Fatalf("%s allocates %v allocs per ms of virtual time, want 0", in.Name, allocs)
	}
	if cpuTime(kern) == before {
		t.Fatalf("%s made no progress while measured", in.Name)
	}
	if in.Completions != 0 || kern.LiveTasks() == 0 {
		t.Fatalf("%s finished while measured", in.Name)
	}
}

// fluidShaped is a fluidanimate-shaped loop: fine critical sections
// inside every iteration's compute, then a barrier.
func fluidShaped(mode workload.SyncMode) workload.ParallelSpec {
	return workload.ParallelSpec{
		Name: "fluid-" + mode.String(), Mode: mode, Iterations: 1 << 30,
		Work: 2 * sim.Millisecond, Imbalance: 0.08,
		LocksPerIter: 10, CSLen: 25 * sim.Microsecond, BarrierEvery: 1,
	}
}

func TestParallelBlockingZeroAllocs(t *testing.T) {
	eng, kern := interferedRig(t)
	pinZeroAllocs(t, eng, kern, workload.NewParallel(kern, fluidShaped(workload.SyncBlocking), 1))
}

func TestParallelSpinningZeroAllocs(t *testing.T) {
	eng, kern := interferedRig(t)
	pinZeroAllocs(t, eng, kern, workload.NewParallel(kern, fluidShaped(workload.SyncSpinning), 1))
}

func TestPipelineZeroAllocs(t *testing.T) {
	eng, kern := interferedRig(t)
	pinZeroAllocs(t, eng, kern, workload.NewPipeline(kern, workload.PipelineSpec{
		Name: "pipe", Stages: 3, ThreadsPerStage: 2, Items: 1 << 30,
		WorkPerStage: 300 * sim.Microsecond, Imbalance: 0.3, QueueCap: 4,
	}, 1))
}

func TestWorkStealZeroAllocs(t *testing.T) {
	eng, kern := interferedRig(t)
	pinZeroAllocs(t, eng, kern, workload.NewWorkSteal(kern, workload.WorkStealSpec{
		Name: "steal", Chunks: 1 << 30, ChunkWork: 200 * sim.Microsecond,
		Imbalance: 0.4, GrabCS: 5 * sim.Microsecond,
	}, 1))
}

func TestOpenServerZeroAllocs(t *testing.T) {
	eng, kern := interferedRig(t)
	in, stats := workload.NewServer(kern, workload.ServerSpec{
		Name: "open", Threads: 4, Service: 150 * sim.Microsecond,
		Arrival: 100 * sim.Microsecond, LockEvery: 3, LockCS: 20 * sim.Microsecond,
		Duration: 1000 * sim.Second,
	}, 1)
	pinZeroAllocs(t, eng, kern, in)
	if stats.Requests == 0 {
		t.Fatal("open server served no requests")
	}
}

// The tick-evader runs on a 500 µs period here, so every measured
// millisecond holds several of its steps; on the 10 ms credit tick
// most would hold none.
func TestTickEvadeZeroAllocs(t *testing.T) {
	eng, kern := interferedRig(t)
	pinZeroAllocs(t, eng, kern, workload.NewAttacker(kern, workload.AttackSpec{
		Kind: workload.AttackTickEvade, Period: 500 * sim.Microsecond, Margin: 100 * sim.Microsecond,
		Resume: 50 * sim.Microsecond, Threads: 2, Jitter: 0.2,
	}, 1))
}

func TestBoostGameZeroAllocs(t *testing.T) {
	eng, kern := interferedRig(t)
	pinZeroAllocs(t, eng, kern, workload.NewAttacker(kern, workload.AttackSpec{Kind: workload.AttackBoostGame, Threads: 2, Jitter: 0.2}, 1))
}
