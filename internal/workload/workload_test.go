package workload_test

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/workload"
)

func rig(t *testing.T, nvcpus int) (*sim.Engine, *guest.Kernel) {
	t.Helper()
	eng := sim.NewEngine()
	hv := hypervisor.New(eng, hypervisor.DefaultConfig(nvcpus))
	vm := hv.NewVM("vm", nvcpus, 256, false)
	kern := guest.NewKernel(hv, vm, guest.DefaultConfig())
	return eng, kern
}

func runInstance(t *testing.T, eng *sim.Engine, kern *guest.Kernel, in *workload.Instance, horizon sim.Time) {
	t.Helper()
	in.OnFinish = func() { eng.Stop() }
	in.Start()
	kern.Start()
	if err := eng.Run(horizon); err != nil {
		t.Fatalf("run: %v", err)
	}
	if in.Completions != 1 {
		t.Fatalf("completions = %d, want 1", in.Completions)
	}
}

func TestCatalogComplete(t *testing.T) {
	parsec := workload.PARSEC()
	if len(parsec) != 12 {
		t.Fatalf("PARSEC catalog has %d entries, want 12 (Figure 5)", len(parsec))
	}
	npb := workload.NPB()
	if len(npb) != 9 {
		t.Fatalf("NPB catalog has %d entries, want 9 (Figure 6)", len(npb))
	}
	names := map[string]bool{}
	for _, b := range append(parsec, npb...) {
		if names[b.Name] {
			t.Fatalf("duplicate benchmark %s", b.Name)
		}
		names[b.Name] = true
	}
	for _, want := range []string{"dedup", "ferret", "raytrace", "x264", "EP", "UA"} {
		if !names[want] {
			t.Fatalf("missing benchmark %s", want)
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	if _, ok := workload.ByName("streamcluster"); !ok {
		t.Fatal("streamcluster not found")
	}
	if _, ok := workload.ByName("nope"); ok {
		t.Fatal("bogus name found")
	}
	if len(workload.Names()) != 21 {
		t.Fatalf("Names() = %d entries, want 21", len(workload.Names()))
	}
}

func TestEveryCatalogBenchmarkCompletesAlone(t *testing.T) {
	for _, b := range append(workload.PARSEC(), workload.NPB()...) {
		t.Run(b.Name, func(t *testing.T) {
			eng, kern := rig(t, 4)
			in := b.Instantiate(kern, 0, 1)
			runInstance(t, eng, kern, in, 120*sim.Second)
			if in.Runtime() <= 0 {
				t.Fatal("zero runtime")
			}
		})
	}
}

func TestParallelRuntimeTracksNominalWork(t *testing.T) {
	eng, kern := rig(t, 4)
	spec := workload.ParallelSpec{
		Name: "cal", Mode: workload.SyncBlocking,
		Iterations: 50, Work: 10 * sim.Millisecond, BarrierEvery: 1,
	}
	in := workload.NewParallel(kern, spec, 1)
	runInstance(t, eng, kern, in, 10*sim.Second)
	nominal := spec.TotalWork()
	if in.Runtime() < nominal || in.Runtime() > nominal*13/10 {
		t.Fatalf("runtime %v vs nominal %v", in.Runtime(), nominal)
	}
}

func TestParallelSpinningModeBurnsMoreCPU(t *testing.T) {
	mk := func(mode workload.SyncMode) (sim.Time, sim.Time) {
		eng, kern := rig(t, 4)
		spec := workload.ParallelSpec{
			Name: "m", Mode: mode, Iterations: 40,
			Work: 8 * sim.Millisecond, Imbalance: 0.4, BarrierEvery: 1,
		}
		in := workload.NewParallel(kern, spec, 1)
		runInstance(t, eng, kern, in, 30*sim.Second)
		var cpu sim.Time
		for _, tk := range kern.Tasks() {
			cpu += tk.CPUTime
		}
		return in.Runtime(), cpu
	}
	_, blockCPU := mk(workload.SyncBlocking)
	_, spinCPU := mk(workload.SyncSpinning)
	if spinCPU <= blockCPU {
		t.Fatalf("spinning CPU %v <= blocking CPU %v; spinners must burn cycles", spinCPU, blockCPU)
	}
}

func TestPipelineProcessesAllItems(t *testing.T) {
	eng, kern := rig(t, 4)
	spec := workload.PipelineSpec{
		Name: "pipe", Stages: 3, ThreadsPerStage: 2, Items: 100,
		WorkPerStage: 500 * sim.Microsecond, QueueCap: 4,
	}
	in := workload.NewPipeline(kern, spec, 1)
	runInstance(t, eng, kern, in, 60*sim.Second)
	// All 6 threads exited => all queues drained and closed.
	if kern.LiveTasks() != 0 {
		t.Fatalf("%d tasks still alive", kern.LiveTasks())
	}
}

func TestWorkStealDrainsPool(t *testing.T) {
	eng, kern := rig(t, 4)
	spec := workload.WorkStealSpec{
		Name: "ws", Chunks: 200, ChunkWork: sim.Millisecond, GrabCS: 2 * sim.Microsecond,
	}
	in := workload.NewWorkSteal(kern, spec, 1)
	runInstance(t, eng, kern, in, 30*sim.Second)
	// 200 chunks over 4 threads: ~50ms each in parallel.
	if in.Runtime() < 45*sim.Millisecond || in.Runtime() > 120*sim.Millisecond {
		t.Fatalf("runtime %v, want ~50-70ms", in.Runtime())
	}
}

func TestWorkStealAbsorbsImbalance(t *testing.T) {
	// A work-stealing pool should finish in ~total/threads even when
	// individual chunk sizes vary a lot.
	eng, kern := rig(t, 4)
	spec := workload.WorkStealSpec{
		Name: "ws", Chunks: 400, ChunkWork: sim.Millisecond,
		Imbalance: 0.5, GrabCS: 2 * sim.Microsecond,
	}
	in := workload.NewWorkSteal(kern, spec, 1)
	runInstance(t, eng, kern, in, 30*sim.Second)
	ideal := spec.TotalWork() / 4
	if in.Runtime() > ideal*3/2 {
		t.Fatalf("runtime %v vs ideal %v: stealing failed to balance", in.Runtime(), ideal)
	}
}

func TestServerRecordsLatencies(t *testing.T) {
	eng, kern := rig(t, 2)
	spec := workload.ServerSpec{
		Name: "srv", Threads: 2, Service: 2 * sim.Millisecond,
		Duration: 2 * sim.Second,
	}
	in, stats := workload.NewServer(kern, spec, 1)
	runInstance(t, eng, kern, in, 10*sim.Second)
	if stats.Requests < 100 {
		t.Fatalf("requests = %d, want many", stats.Requests)
	}
	if stats.Latency.Count() != stats.Requests {
		t.Fatalf("latency samples %d != requests %d", stats.Latency.Count(), stats.Requests)
	}
	if stats.Throughput() <= 0 {
		t.Fatal("no throughput")
	}
	// Saturated 2 threads / 2 vCPUs at 2ms services: ~1000 req/s.
	if thr := stats.Throughput(); thr < 700 || thr > 1200 {
		t.Fatalf("throughput %.0f, want ~1000", thr)
	}
}

func TestServerWithThinkTime(t *testing.T) {
	eng, kern := rig(t, 2)
	spec := workload.ServerSpec{
		Name: "srv", Threads: 4, Service: sim.Millisecond,
		Think: 10 * sim.Millisecond, Duration: 2 * sim.Second,
	}
	in, stats := workload.NewServer(kern, spec, 1)
	runInstance(t, eng, kern, in, 10*sim.Second)
	// 4 closed-loop clients with ~11ms cycle: ~360 req/s.
	if thr := stats.Throughput(); thr < 250 || thr > 450 {
		t.Fatalf("throughput %.0f, want ~360", thr)
	}
}

func TestHogNeverFinishes(t *testing.T) {
	eng, kern := rig(t, 2)
	in := workload.NewHog(kern, 2)
	if !in.Endless {
		t.Fatal("hog not marked endless")
	}
	finished := false
	in.OnFinish = func() { finished = true }
	in.Start()
	kern.Start()
	_ = eng.Run(2 * sim.Second)
	if finished {
		t.Fatal("hog finished")
	}
	for _, tk := range kern.Tasks() {
		if tk.CPUTime < sim.Time(float64(2*sim.Second)*0.95) {
			t.Fatalf("hog %s only used %v of 2s", tk.Name, tk.CPUTime)
		}
	}
}

func TestRepeatingInstanceRespawns(t *testing.T) {
	eng, kern := rig(t, 2)
	spec := workload.ParallelSpec{
		Name: "bg", Mode: workload.SyncBlocking, Threads: 2,
		Iterations: 5, Work: 5 * sim.Millisecond, BarrierEvery: 1,
	}
	in := workload.NewParallel(kern, spec, 1)
	in.Repeat = true
	in.Start()
	kern.Start()
	_ = eng.Run(2 * sim.Second)
	if in.Completions < 10 {
		t.Fatalf("completions = %d, want many (repeat)", in.Completions)
	}
	if in.MeanRuntime() <= 0 {
		t.Fatal("no mean runtime")
	}
}

func TestInstanceRuntimeIsFirstCompletion(t *testing.T) {
	eng, kern := rig(t, 2)
	spec := workload.ParallelSpec{
		Name: "x", Mode: workload.SyncBlocking, Threads: 2,
		Iterations: 3, Work: 4 * sim.Millisecond, BarrierEvery: 1,
	}
	in := workload.NewParallel(kern, spec, 1)
	in.Repeat = true
	in.Start()
	kern.Start()
	_ = eng.Run(500 * sim.Millisecond)
	if in.Runtime() > in.FinishedAt-in.StartedAt {
		t.Fatal("Runtime() exceeds first completion span")
	}
}

func TestDefaultModePreserved(t *testing.T) {
	b, _ := workload.ByName("CG")
	if b.DefaultMode() != workload.SyncSpinning {
		t.Fatal("NPB default should be spinning")
	}
	p, _ := workload.ByName("facesim")
	if p.DefaultMode() != workload.SyncBlocking {
		t.Fatal("PARSEC default should be blocking")
	}
}
