package workload

import (
	"fmt"
	"math"

	"repro/internal/guest"
	"repro/internal/guestsync"
	"repro/internal/sim"
	"repro/internal/span"
)

// Remote-gate server mode: like the open loop, but requests are pushed
// in from outside the guest — a cluster-level router — instead of being
// generated by an in-kernel Poisson source. The gate accepts arrivals
// stamped with their original arrival time, so a request carried across
// a VM migration keeps accumulating queueing delay while the VM is
// paused and the measured latency includes the downtime.

// RemoteGate is the submission interface of one server replica.
type RemoteGate struct {
	sh        *openServerShared
	closed    bool
	submitted int64
	served    int64
	inflight  int64

	// OnServed, when non-nil, observes each completed request's
	// end-to-end latency (queueing and downtime included).
	OnServed func(lat sim.Time)
}

// Submit hands the gate one request stamped with its arrival time
// (earlier than now for requests carried over a migration). It returns
// false when the gate has been closed; the caller keeps the request.
func (g *RemoteGate) Submit(arrival sim.Time) bool {
	return g.SubmitReq(Request{Arrival: arrival})
}

// SubmitReq is Submit for a request that may carry a blame span — a
// freshly routed request or one handed back by Close on migration.
func (g *RemoteGate) SubmitReq(req Request) bool {
	if g.closed {
		return false
	}
	sh := g.sh
	if sh == nil {
		panic("workload: RemoteGate.Submit before Instance.Start")
	}
	g.submitted++
	// Back in a replica's queue: for a fresh span this coalesces into
	// the opening queue-wait segment; for a carried one it closes the
	// vm-migr segment opened by Close.
	req.Span.Transition(sh.kern.Now(), span.CatQueueWait)
	sh.queue.push(req)
	sh.wakeOne()
	return true
}

// Close seals the gate: no further submissions are accepted, the worker
// threads finish what is in flight and exit, and the queued requests
// that no worker has picked up yet are returned to the caller — a
// migration carries them, timestamps intact, to the successor replica.
func (g *RemoteGate) Close() []Request {
	if g.closed {
		return nil
	}
	g.closed = true
	sh := g.sh
	carried := sh.queue.drain()
	// From here until re-submission on the destination replica, the
	// requests' waiting is the migration's fault, not the queue's.
	for _, req := range carried {
		req.Span.Transition(sh.kern.Now(), span.CatVMMigr)
	}
	sh.until = sh.kern.Now() // workers observe the deadline and exit
	sh.wakeAll()
	return carried
}

// Closed reports whether Close has run.
func (g *RemoteGate) Closed() bool { return g.closed }

// QueueLen is the number of submitted requests no worker has started.
func (g *RemoteGate) QueueLen() int {
	if g.sh == nil || g.closed {
		return 0
	}
	return g.sh.queue.len()
}

// InFlight is the number of requests currently being serviced.
func (g *RemoteGate) InFlight() int64 { return g.inflight }

// Served is the number of requests completed by this replica.
func (g *RemoteGate) Served() int64 { return g.served }

// Submitted is the number of requests accepted by Submit.
func (g *RemoteGate) Submitted() int64 { return g.submitted }

// NewRemoteServer instantiates an externally fed open-loop server on
// kern and returns its submission gate. stats may be shared across
// replicas (and across the generations of a migrating VM); nil keeps
// private counters and no latency histogram, for callers that take the
// latencies from RemoteGate.OnServed. The instance must be Started
// before the first Submit. Spec.Duration and Spec.Arrival are ignored:
// the server runs until the gate is closed and arrivals come from the
// caller.
func NewRemoteServer(kern *guest.Kernel, spec ServerSpec, seed uint64, stats *ServerStats) (*Instance, *RemoteGate) {
	if spec.Threads <= 0 {
		spec.Threads = len(kern.CPUs())
	}
	if stats == nil {
		stats = &ServerStats{} // a nil Latency histogram drops samples
	}
	in := &Instance{Name: spec.Name, kern: kern, Endless: true}
	gate := &RemoteGate{}
	in.spawn = func() {
		sh := &openServerShared{
			serverShared: &serverShared{
				spec:      spec,
				stats:     stats,
				rng:       sim.NewRNG(seed ^ 0x6a7e9),
				startedAt: kern.Now(),
				until:     sim.Time(math.MaxInt64),
			},
			kern: kern,
			gate: gate,
		}
		gate.sh = sh
		if spec.LockEvery > 0 {
			sh.mu = guestsync.NewMutex(kern)
		}
		for i := 0; i < spec.Threads; i++ {
			w := newOpenWorker(sh, sh.rng.Fork(uint64(i)))
			kern.Spawn(fmt.Sprintf("%s-%d", spec.Name, i), w, i%len(kern.CPUs()))
		}
	}
	return in, gate
}
