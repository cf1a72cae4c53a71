package cluster

import (
	"repro/internal/decision"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The router is the cluster's front door: an open-loop Poisson stream
// of requests on the control shard. Routing is partitioned by zone —
// the outer level picks a zone by least mean outstanding work per live
// replica (skipping cordoned zones, so an outage fails traffic over
// automatically), the inner level runs join-shortest-queue over that
// zone's replicas only. With one flat zone the outer level collapses
// to a constant and the inner JSQ is exactly the old global router.
// Each dispatch posts to the replica's host shard with the transit
// latency (= the lookahead), so routing never reads another shard
// mid-window. The load view is routed minus served-as-seen-at-the-
// last-barrier — the slightly stale picture a real front door has. A
// replica under migration or autoscaler drain is cordoned so its queue
// empties before the switchover; when no replica is available at all
// (early arrivals, every server mid-switchover, every zone dark) the
// request is held back and flushed as soon as a gate opens, original
// timestamp intact, so its wait shows up in the measured latency.

// arrivalMean returns the mean inter-arrival time in effect at now:
// the flat Arrival, or the active stage of the configured ramp. The
// stage cursor only moves forward — arrivals consume time
// monotonically.
func (c *Cluster) arrivalMean(now sim.Time) sim.Time {
	ramp := c.cfg.Ramp
	if len(ramp) == 0 {
		return c.cfg.Arrival
	}
	for c.rampIdx+1 < len(ramp) && ramp[c.rampIdx+1].At <= now {
		c.rampIdx++
	}
	if ramp[c.rampIdx].At <= now {
		return ramp[c.rampIdx].Arrival
	}
	return c.cfg.Arrival // before the first stage
}

// nextArrival generates one cluster request and re-arms itself until
// the stream duration elapses. Runs on the control shard.
func (c *Cluster) nextArrival() {
	now := c.ctl.Now()
	if now >= c.cfg.Duration {
		return
	}
	c.generated++
	// Admission is where the causal span is born: everything that happens
	// to the request from here on is somebody's fault.
	c.route(workload.Request{Arrival: now, Span: c.cfg.Spans.Start(now)})
	c.ctl.After(c.arrivalRNG.Exp(c.arrivalMean(now)), c.arrivalFn)
}

// route dispatches one request stamped with its arrival time: pick a
// zone (trivial with one), then the replica with the fewest
// outstanding requests inside it (ties to the earliest admitted), and
// post the delivery to its host's shard one transit latency out.
//
// The request waits in its host's inbox, and the delivery posted is
// the host's one bound callback, which lands the inbox's oldest
// request. That is the request it was posted for, because the control
// shard's deliveries to one host fire in post order: a window's posts
// are inserted at its closing barrier in post order, at most one
// lookahead past the barrier time, and posts made in the barrier
// phase that follows land exactly one lookahead past it, after them.
func (c *Cluster) route(req workload.Request) {
	z := c.zones[0]
	failover := false
	if len(c.zones) > 1 {
		zi := topology.RouteZone(c.zoneRoutes())
		if zi < 0 {
			if c.decCtl.Wants(decision.KindRoute) {
				c.recordRouteBuffered(req, nil)
			}
			c.buffered = append(c.buffered, req)
			return
		}
		z = c.zones[zi]
		if c.cordonedZones > 0 {
			c.failoverRouted++
			failover = true
		}
	}
	var best *VMHandle
	var bestLoad int64
	for _, hd := range z.servers {
		if !routable(hd) {
			continue
		}
		load := hd.routed - hd.servedSeen
		if best == nil || load < bestLoad {
			best, bestLoad = hd, load
		}
	}
	if best == nil {
		if c.decCtl.Wants(decision.KindRoute) {
			c.recordRouteBuffered(req, z)
		}
		c.buffered = append(c.buffered, req)
		return
	}
	if c.decCtl.Wants(decision.KindRoute) {
		c.recordRoute(req, z, best, failover)
	}
	z.routed++
	best.routed++
	host := best.host
	host.inbox.push(transit{hd: best, gate: best.gate, req: req})
	c.sh.Post(ctlShard, host.ID+1, lookahead, host.deliver)
}

// transit is a routed request on its way to its host: the replica and
// the gate that was live at routing time.
type transit struct {
	hd   *VMHandle
	gate *workload.RemoteGate
	req  workload.Request
}

// inbox is a host's FIFO of requests in transit, oldest from head.
type inbox struct {
	q    []transit
	head int
}

// push appends t, reusing the delivered prefix once it is half the
// queue instead of growing.
func (in *inbox) push(t transit) {
	if len(in.q) == cap(in.q) && in.head > len(in.q)/2 {
		n := copy(in.q, in.q[in.head:])
		clear(in.q[n:])
		in.q, in.head = in.q[:n], 0
	}
	in.q = append(in.q, t)
}

// pop removes and returns the oldest request in transit.
func (in *inbox) pop() transit {
	t := in.q[in.head]
	in.q[in.head] = transit{}
	if in.head++; in.head == len(in.q) {
		in.q, in.head = in.q[:0], 0
	}
	return t
}

// deliverNext lands the oldest request in transit to host on its shard
// and counts it delivered. The gate is the one that was live at
// routing time; if a migration sealed it while the request was in
// transit, the request bounces, and the next barrier re-routes it to
// the successor instance (or into the migration's carried set). Runs
// on host's shard.
func (c *Cluster) deliverNext(host *Host) {
	t := host.inbox.pop()
	if t.gate.SubmitReq(t.req) {
		t.hd.delivered++
		return
	}
	t.req.Span.Transition(host.eng.Now(), span.CatVMMigr)
	c.bounced = append(c.bounced, bounceRec{hd: t.hd, req: t.req})
}

// flushBuffered re-routes requests held back while no replica was
// available. Barrier context (admission, migration completion, outage
// recovery).
func (c *Cluster) flushBuffered() {
	if len(c.buffered) == 0 {
		return
	}
	held := c.buffered
	c.buffered = nil
	for _, req := range held {
		c.route(req)
	}
}
