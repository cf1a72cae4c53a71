package workload

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/guestsync"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ServerSpec models multi-threaded request-processing workloads
// (§5.3): SPECjbb-style warehouses (few threads, one per vCPU, modest
// service times, occasional shared lock) and ab-style webservers (many
// short-request threads per vCPU). Workers run a closed loop for
// Duration; each request's latency — queueing included — is recorded.
type ServerSpec struct {
	Name    string
	Threads int
	// Service is the mean request service time (exponentially
	// distributed).
	Service sim.Time
	// Think is the mean pause between requests (0 = saturated).
	Think sim.Time
	// LockEvery makes every n-th request acquire a shared mutex for
	// LockCS (0 = no locking).
	LockEvery int
	LockCS    sim.Time
	// Duration is how long the measurement runs.
	Duration sim.Time
	// Arrival, when non-zero, switches the server to an open loop:
	// requests arrive with exponential inter-arrival times (mean
	// Arrival) into a shared queue that the worker threads drain, so
	// latency includes queueing delay. Zero keeps the closed loop
	// (each worker issues its next request immediately).
	Arrival sim.Time
}

// Fields is the spec's key=value table in render order, without Name:
// a host spec's server VM sections parse through it (see
// core.ParseHostSpec), and the VM's name names the server.
func (s *ServerSpec) Fields() kv.Table {
	return kv.Table{
		kv.Bind("threads", &s.Threads),
		kv.Bind("service", &s.Service),
		kv.Bind("think", &s.Think),
		kv.Bind("lock-every", &s.LockEvery),
		kv.Bind("lock-cs", &s.LockCS),
		kv.Bind("duration", &s.Duration),
		kv.Bind("arrival", &s.Arrival),
	}
}

// ServerStats captures the paper's server metrics.
type ServerStats struct {
	Requests int64
	Latency  *obs.Histogram
	Elapsed  sim.Time
}

// Throughput returns completed requests per virtual second.
func (s *ServerStats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Requests) / s.Elapsed.Seconds()
}

type serverShared struct {
	spec      ServerSpec
	stats     *ServerStats
	mu        *guestsync.Mutex
	rng       *sim.RNG
	startedAt sim.Time
	until     sim.Time
}

// serverWorker is one closed-loop server thread: a state machine
// (service → optional lock → CS → unlock → record → think) whose
// callbacks are bound once at construction.
type serverWorker struct {
	sh   *serverShared
	rng  *sim.RNG
	reqs int

	// The request in progress. t and resume are the task and the
	// kernel's step callback handed to Action.Done.
	t      *guest.Task
	resume func()
	start  sim.Time
	locked bool

	servedFn           func(t *guest.Task, resume func()) // Action.Done
	lockedFn, csDoneFn func()
}

func newServerWorker(sh *serverShared, rng *sim.RNG) *serverWorker {
	w := &serverWorker{sh: sh, rng: rng}
	w.servedFn = w.served
	w.lockedFn = w.lockHeld
	w.csDoneFn = w.csDone
	return w
}

// Step implements guest.Program: one request per step.
func (w *serverWorker) Step(t *guest.Task) guest.Action {
	sh := w.sh
	if t.Kernel().Now() >= sh.until {
		return guest.Exit()
	}
	w.reqs++
	service := w.rng.Exp(sh.spec.Service)
	w.start = t.Kernel().Now()
	w.locked = sh.spec.LockEvery > 0 && w.reqs%sh.spec.LockEvery == 0
	return guest.RunThen(service, w.servedFn)
}

func (w *serverWorker) served(t *guest.Task, resume func()) {
	w.t, w.resume = t, resume
	if !w.locked {
		w.finish()
		return
	}
	w.sh.mu.Lock(t, w.lockedFn)
}

func (w *serverWorker) lockHeld() {
	w.t.Kernel().RunInTask(w.t, w.sh.spec.LockCS, w.csDoneFn)
}

func (w *serverWorker) csDone() {
	w.sh.mu.Unlock(w.t)
	w.finish()
}

// finish records the request, then thinks (sleeps) or resumes at once.
func (w *serverWorker) finish() {
	sh, k := w.sh, w.t.Kernel()
	sh.stats.Requests++
	sh.stats.Latency.Add(k.Now() - w.start)
	if el := k.Now() - sh.startedAt; el > sh.stats.Elapsed {
		sh.stats.Elapsed = el
	}
	if sh.spec.Think > 0 {
		k.SleepTask(w.t, w.rng.Exp(sh.spec.Think), w.resume)
		return
	}
	w.resume()
}

// NewServer instantiates a server benchmark on kern. Stats, also the
// instance's Server field, gives access to throughput and latency
// percentiles after the run.
func NewServer(kern *guest.Kernel, spec ServerSpec, seed uint64) (*Instance, *ServerStats) {
	if spec.Threads <= 0 {
		spec.Threads = len(kern.CPUs())
	}
	stats := &ServerStats{Latency: &obs.Histogram{}}
	if spec.Arrival > 0 {
		return newOpenServer(kern, spec, seed, stats), stats
	}
	in := &Instance{Name: spec.Name, kern: kern, Server: stats}
	in.spawn = func() {
		sh := &serverShared{
			spec:      spec,
			stats:     stats,
			mu:        guestsync.NewMutex(kern),
			rng:       sim.NewRNG(seed ^ 0x5e2e2),
			startedAt: kern.Now(),
			until:     kern.Now() + spec.Duration,
		}
		for i := 0; i < spec.Threads; i++ {
			w := newServerWorker(sh, sh.rng.Fork(uint64(i)))
			kern.Spawn(fmt.Sprintf("%s-%d", spec.Name, i), w, i%len(kern.CPUs()))
		}
	}
	return in, stats
}

type hogProg struct{}

func (hogProg) Step(t *guest.Task) guest.Action {
	return guest.Run(10 * sim.Millisecond)
}

// NewHog instantiates an interference VM workload: n CPU hogs placed on
// the first n guest CPUs. Hogs never finish.
func NewHog(kern *guest.Kernel, n int) *Instance {
	in := &Instance{Name: "cpu-hog", kern: kern, Endless: true}
	in.spawn = func() {
		for i := 0; i < n; i++ {
			kern.Spawn(fmt.Sprintf("hog-%d", i), hogProg{}, i%len(kern.CPUs()))
		}
	}
	return in
}
