package hypervisor

import (
	"fmt"
	"strconv"

	"repro/internal/decision"
	"repro/internal/sim"
)

// Decision-log producers for the two per-vCPU scheduler choices worth
// auditing: BOOST grants on wake and involuntary preemptions. Both are
// hot-path sites (WakeVCPU, deschedule), so the callers gate on
// Ring.Wants before calling in here; these helpers are the cold path
// and are marked noinline so their record construction never bloats the
// scheduler fast path or defeats the zero-alloc-when-off guarantee
// (pinned by TestDisabledDecisionLogZeroAllocs).

//go:noinline
func (h *Hypervisor) recordBoost(d *decision.Ring, v *VCPU) {
	d.Add(decision.Record{
		At:      h.eng.Now(),
		Kind:    decision.KindBoost,
		Subject: v.VM.Name,
		Winner:  v.Name(),
	}, decision.Body{
		Detail: fmt.Sprintf("wake boost for %s", v.Name()),
		Inputs: []decision.KV{
			{Key: "credits", Val: strconv.Itoa(v.credits)},
			{Key: "grants", Val: strconv.FormatInt(v.VM.BoostGrants, 10)},
		},
	})
}

//go:noinline
func (h *Hypervisor) recordPreempt(d *decision.Ring, now sim.Time, p *PCPU, v *VCPU, pc PreemptClass, disposition RunState) {
	d.Add(decision.Record{
		At:      now,
		Kind:    decision.KindPreempt,
		Subject: v.VM.Name,
		Winner:  v.Name(),
	}, decision.Body{
		Detail: fmt.Sprintf("involuntary deschedule of %s on %s (%s)", v.Name(), p.Name(), pc),
		Inputs: []decision.KV{
			{Key: "pcpu", Val: p.Name()},
			{Key: "class", Val: pc.String()},
			{Key: "prio", Val: v.prio.String()},
			{Key: "credits", Val: strconv.Itoa(v.credits)},
			{Key: "to", Val: disposition.String()},
		},
	})
}
