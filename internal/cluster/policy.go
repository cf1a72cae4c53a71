package cluster

import (
	"fmt"

	"repro/internal/decision"
)

// Policy selects how arriving VMs are placed onto hosts.
type Policy int

const (
	// FirstFit packs each VM onto the lowest-numbered host with
	// committed-vCPU capacity left.
	FirstFit Policy = iota + 1
	// LeastLoaded balances committed vCPUs (ties to the lowest host).
	LeastLoaded
	// InterferenceAware scores hosts from the measured interference
	// signal (busy/steal/preempt-wait fractions, LHP rate from each
	// host's hypervisor accounting) plus the declared pressure and
	// sensitivity of the incoming VM, and picks the minimum.
	InterferenceAware
)

func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case LeastLoaded:
		return "least-loaded"
	case InterferenceAware:
		return "interference-aware"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// overfullPenalty soft-forbids exceeding the committed-vCPU capacity:
// an over-capacity host is chosen only when every host is over.
const overfullPenalty = 1000.0

// place picks a host for hd: with a multi-zone topology the zone
// picker ranks zones by aggregate telemetry first (the outer level),
// then the configured policy runs over the chosen zone's hosts (the
// inner level). With one flat zone the outer level vanishes and the
// policy sees the whole rack — the pre-zone behavior, byte for byte.
// Ties always break to the lowest host ID, keeping placement
// deterministic.
func (c *Cluster) place(hd *VMHandle) *Host {
	hosts := c.hosts
	if len(c.zones) > 1 {
		hosts = c.zones[c.pickZone(hd)].hosts
	}
	return c.placeAmong(hd, hosts)
}

// placeAmong runs the configured placement policy over the candidate
// hosts and records the choice — with every candidate's score — in the
// decision log when one is attached.
func (c *Cluster) placeAmong(hd *VMHandle, hosts []*Host) *Host {
	n := hd.Spec.VCPUs
	cap := c.capacity()
	var best *Host
	switch c.cfg.Policy {
	case FirstFit:
		for _, h := range hosts {
			if h.committed+n <= cap {
				best = h
				break
			}
		}
		if best == nil {
			best = leastCommitted(hosts)
		}
	case InterferenceAware:
		// Act on a fresh window rather than the last monitor tick.
		c.refreshSignals()
		bestScore := 0.0
		for _, h := range hosts {
			s := c.placementScore(h, hd, cap)
			if best == nil || s < bestScore {
				best, bestScore = h, s
			}
		}
	default: // LeastLoaded
		best = leastCommitted(hosts)
	}
	if c.decCtl.Wants(decision.KindPlace) {
		c.recordPlace(hd, hosts, best, cap)
	}
	return best
}

// leastCommitted returns the candidate host with the fewest committed
// vCPUs.
func leastCommitted(hosts []*Host) *Host {
	best := hosts[0]
	for _, h := range hosts[1:] {
		if h.committed < best.committed {
			best = h
		}
	}
	return best
}

// placementScore estimates how bad placing hd on h would be, from the
// measured signal plus the projected post-placement utilization
// (measured busy fraction + the newcomer's declared pressure): what the
// host would do to a sensitive newcomer (measured contention, projected
// CPU scarcity), what the newcomer's pressure would do to resident
// sensitive VMs (only when CPU becomes scarce), a mild committed-load
// tiebreak, and a large penalty for exceeding capacity.
func (c *Cluster) placementScore(h *Host, hd *VMHandle, cap int) float64 {
	uProj := h.busyFrac + hd.Spec.Pressure/float64(c.cfg.PCPUsPerHost)
	s := 0.05 * float64(h.committed) / float64(cap)
	if hd.Spec.Sensitive {
		s += h.Interference()
		if uProj > 0.8 {
			s += 4 * (uProj - 0.8)
		}
	}
	s += hd.Spec.Pressure * float64(h.sensitive) * scarcity(uProj)
	if h.committed+hd.Spec.VCPUs > cap {
		s += overfullPenalty
	}
	return s
}

// scarcity maps projected utilization to contention likelihood: free
// below 50%, certain at saturation.
func scarcity(u float64) float64 {
	switch {
	case u <= 0.5:
		return 0
	case u >= 1.0:
		return 1
	default:
		return (u - 0.5) / 0.5
	}
}
