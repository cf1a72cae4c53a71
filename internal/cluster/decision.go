package cluster

import (
	"fmt"
	"strconv"

	"repro/internal/decision"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Decision-log producers for the control plane's five choice sites:
// zone pick, host placement, request routing, autoscaling, and
// migration — plus the cordon/uncordon pair a zone outage emits. Every
// caller gates on decCtl.Wants first, so runs without Config.Decisions
// pay one nil test per site and build none of the candidate sets or
// strings below. All sites run on the control shard (mid-window for
// routing, barrier context for the rest), so they share decCtl.

// recordZonePick audits the outer level of two-level placement: every
// zone scored with the shared zone scorer, cordoned zones marked.
func (c *Cluster) recordZonePick(hd *VMHandle, st []topology.ZoneStats, zi int) {
	cands := make([]decision.Candidate, 0, len(st))
	for i, zs := range st {
		reason := fmt.Sprintf("committed=%d/%d intf=%.3f", zs.Committed, zs.Capacity, zs.Interference)
		if zs.Cordoned {
			reason = "cordoned " + reason
		}
		cands = append(cands, decision.Candidate{
			Name:   c.zones[i].name,
			Score:  topology.ZoneScore(zs, hd.Spec.VCPUs, hd.Spec.Pressure, hd.Spec.Sensitive),
			Reason: reason,
		})
	}
	c.decCtl.Add(decision.Record{
		At:      c.sh.Now(),
		Kind:    decision.KindZonePick,
		Subject: hd.instName(),
		Winner:  c.zones[zi].name,
	}, decision.Body{
		Detail:     fmt.Sprintf("zone for %s (%d vCPUs)", hd.instName(), hd.Spec.VCPUs),
		Candidates: cands,
		Inputs: []decision.KV{
			{Key: "vcpus", Val: strconv.Itoa(hd.Spec.VCPUs)},
			{Key: "pressure", Val: strconv.FormatFloat(hd.Spec.Pressure, 'f', 2, 64)},
			{Key: "sensitive", Val: strconv.FormatBool(hd.Spec.Sensitive)},
		},
	})
}

// recordPlace audits the inner level: every candidate host with the
// score the policy ranked it by — the interference-aware placement
// score, or the committed-vCPU count for the load-based policies.
func (c *Cluster) recordPlace(hd *VMHandle, hosts []*Host, best *Host, cap int) {
	cands := make([]decision.Candidate, 0, len(hosts))
	for _, h := range hosts {
		var cand decision.Candidate
		cand.Name = h.Name()
		if c.cfg.Policy == InterferenceAware {
			cand.Score = c.placementScore(h, hd, cap)
			cand.Reason = fmt.Sprintf("busy=%.3f intf=%.3f sens=%d committed=%d",
				h.busyFrac, h.Interference(), h.sensitive, h.committed)
		} else {
			cand.Score = float64(h.committed)
			cand.Reason = fmt.Sprintf("committed=%d", h.committed)
		}
		if h.committed+hd.Spec.VCPUs > cap {
			cand.Reason = "over-cap " + cand.Reason
		}
		cands = append(cands, cand)
	}
	c.decCtl.Add(decision.Record{
		At:      c.sh.Now(),
		Kind:    decision.KindPlace,
		Subject: hd.instName(),
		Winner:  best.Name(),
	}, decision.Body{
		Detail:     fmt.Sprintf("%s placed %s (%d vCPUs) on %s", c.cfg.Policy, hd.instName(), hd.Spec.VCPUs, best.Name()),
		Candidates: cands,
		Inputs: []decision.KV{
			{Key: "policy", Val: c.cfg.Policy.String()},
			{Key: "cap", Val: strconv.Itoa(cap)},
			{Key: "pressure", Val: strconv.FormatFloat(hd.Spec.Pressure, 'f', 2, 64)},
			{Key: "sensitive", Val: strconv.FormatBool(hd.Spec.Sensitive)},
		},
	})
}

// recordRoute audits one dispatched request: the chosen zone's
// routable replicas with their outstanding estimates (the JSQ
// ranking). The zone-level comparison is an input, not a candidate —
// zone scores and replica loads are different units. The record is
// typed: names are the handles' cached instance names and the
// candidates go into the ring's arena, so nothing is allocated per
// request.
func (c *Cluster) recordRoute(req workload.Request, z *zoneState, best *VMHandle, failover bool) {
	loads := c.decCtl.Loads(len(z.servers))
	for _, hd := range z.servers {
		if routable(hd) {
			loads = append(loads, decision.Load{Name: hd.instName(), Out: hd.routed - hd.servedSeen})
		}
	}
	c.decCtl.AddRoute(c.ctl.Now(), decision.Route{
		Arrival: req.Arrival, Zone: z.name, Winner: best.instName(), Failover: failover, Loads: loads,
	})
}

// recordRouteBuffered audits a request the router had to hold back:
// no routable zone (z nil) or no live replica in z.
func (c *Cluster) recordRouteBuffered(req workload.Request, z *zoneState) {
	rt := decision.Route{Arrival: req.Arrival}
	if z != nil {
		rt.Zone = z.name
	}
	c.decCtl.AddRoute(c.ctl.Now(), rt)
}

// recordScale audits one autoscaler action (act "up" or "down"), with
// the state machine's inputs: live replica count before the action and
// the burn-rate alert state that drove it.
func (c *Cluster) recordScale(act string, hd *VMHandle, live int) {
	firing := "0"
	if c.watcher.Monitor().AnyFiring() {
		firing = "1"
	}
	c.decCtl.Add(decision.Record{
		At:      c.sh.Now(),
		Kind:    decision.KindAutoscale,
		Subject: hd.Spec.Name,
		Winner:  hd.Spec.Name,
	}, decision.Body{
		Detail: fmt.Sprintf("scale %s: %s (live %d, max %d)", act, hd.Spec.Name, live, c.cfg.Autoscale.Max),
		Inputs: []decision.KV{
			{Key: "act", Val: act},
			{Key: "live", Val: strconv.Itoa(live)},
			{Key: "max", Val: strconv.Itoa(c.cfg.Autoscale.Max)},
			{Key: "firing", Val: firing},
		},
	})
}

// recordMigrate audits a triggered migration: the victim, its measured
// steal fraction against the trigger, and every in-zone destination
// candidate with the placement score the balancer ranked it by.
func (c *Cluster) recordMigrate(victim *VMHandle, hot, cool *Host, cands []decision.Candidate) {
	c.decCtl.Add(decision.Record{
		At:      c.sh.Now(),
		Kind:    decision.KindMigrate,
		Subject: victim.instName(),
		Winner:  cool.Name(),
	}, decision.Body{
		Detail: fmt.Sprintf("migrate %s: %s -> %s (steal %.3f > %.3f)",
			victim.instName(), hot.Name(), cool.Name(), victim.stealFrac, stealTrigger),
		Candidates: cands,
		Inputs: []decision.KV{
			{Key: "from", Val: hot.Name()},
			{Key: "steal", Val: strconv.FormatFloat(victim.stealFrac, 'f', 3, 64)},
			{Key: "trigger", Val: strconv.FormatFloat(stealTrigger, 'f', 3, 64)},
			{Key: "hot-score", Val: strconv.FormatFloat(hot.Score(), 'f', 3, 64)},
			{Key: "threshold", Val: strconv.FormatFloat(hotThreshold, 'f', 2, 64)},
		},
	})
}

// recordCordon / recordUncordon audit a zone outage's edges.
func (c *Cluster) recordCordon(z *zoneState, dur sim.Time) {
	c.decCtl.Add(decision.Record{
		At:      c.sh.Now(),
		Kind:    decision.KindCordon,
		Subject: z.name,
		Winner:  z.name,
	}, decision.Body{
		Detail: fmt.Sprintf("zone %s cordoned for %v (%d hosts dark)", z.name, dur, len(z.hosts)),
		Inputs: []decision.KV{
			{Key: "hosts", Val: strconv.Itoa(len(z.hosts))},
			{Key: "for", Val: dur.String()},
		},
	})
}

func (c *Cluster) recordUncordon(z *zoneState) {
	c.decCtl.Add(decision.Record{
		At:      c.sh.Now(),
		Kind:    decision.KindUncordon,
		Subject: z.name,
		Winner:  z.name,
	}, decision.Body{
		Detail: fmt.Sprintf("zone %s restored (%d hosts resume)", z.name, len(z.hosts)),
		Inputs: []decision.KV{{Key: "hosts", Val: strconv.Itoa(len(z.hosts))}},
	})
}
