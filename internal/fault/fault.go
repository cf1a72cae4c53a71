// Package fault is the deterministic fault-injection subsystem of the
// simulator. A Plan describes a mix of control-plane faults — dropped,
// delayed or duplicated virtual interrupts, lossy or slow hypercalls,
// stale VCPUOP_get_runstate snapshots, jittered guest timer ticks,
// migrator-thread stalls, and vCPU blackouts — and an Injector turns
// the plan into per-decision draws from seeded SplitMix64 streams.
//
// Every fault channel owns an independent RNG stream forked from the
// run seed, so enabling one fault class never perturbs the draws of
// another and a given (seed, plan) pair reproduces a chaos run
// bit-for-bit. A nil *Injector is a valid "no faults" injector: every
// decision method reports "don't inject", mirroring the nil-safety of
// trace.Log and obs.Registry, so injection sites in scheduler hot
// paths need no guards.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Plan describes a fault mix. Probabilities are in [0, 1]; durations
// are virtual time. The zero Plan injects nothing.
type Plan struct {
	// DropSA / DupSA / DelaySA fault the VIRQ_SA_UPCALL channel: a
	// dropped SA is never delivered to the guest (the hypervisor still
	// accounts it as sent, so its hard limit fires); a duplicated SA is
	// delivered twice; DelaySA adds a uniform [0, DelaySA) delivery
	// latency.
	DropSA  float64
	DupSA   float64
	DelaySA sim.Time

	// DropWake / DupWake / DelayWake fault event-channel wakeup
	// notifications (IRQKick): the lost-wakeup pathology.
	DropWake  float64
	DupWake   float64
	DelayWake sim.Time

	// AckLoss is the probability that a sched_op hypercall carrying an
	// SA acknowledgement is lost in the hypervisor: the guest believes
	// it answered, the sender never sees it, and the hard limit fires.
	// AckDelay adds a uniform [0, AckDelay) latency to surviving acks.
	AckLoss  float64
	AckDelay sim.Time

	// StaleRunstate serves VCPUOP_get_runstate snapshots up to this
	// old: a snapshot is cached per vCPU and only refreshed once its
	// age exceeds the bound, so the IRS migrator can observe a sibling
	// as running when it was long since preempted.
	StaleRunstate sim.Time

	// TickJitter scales guest timer-tick periods by a uniform factor in
	// [1, 1+TickJitter], modelling coalesced / late timer interrupts.
	TickJitter float64

	// StallProb stalls the IRS migrator kernel thread for StallFor
	// before it processes a batch, with probability StallProb per kick.
	StallProb float64
	StallFor  sim.Time

	// BlackoutEvery pauses one vCPU (chosen uniformly from the started
	// vCPUs) for BlackoutFor at this period — the control-plane
	// pause/resume blackout. 0 disables.
	BlackoutEvery sim.Time
	BlackoutFor   sim.Time
}

// Zero reports whether the plan injects no faults at all.
func (p Plan) Zero() bool { return p == Plan{} }

// Fields is the plan's key=value table, in render order; the load
// spec's faults section parses through it too. Float keys are
// probabilities, duration keys virtual-time spans.
func (p *Plan) Fields() kv.Table {
	return kv.Table{
		kv.Bind("drop-sa", &p.DropSA),
		kv.Bind("dup-sa", &p.DupSA),
		kv.Bind("delay-sa", &p.DelaySA),
		kv.Bind("drop-wake", &p.DropWake),
		kv.Bind("dup-wake", &p.DupWake),
		kv.Bind("delay-wake", &p.DelayWake),
		kv.Bind("ack-loss", &p.AckLoss),
		kv.Bind("ack-delay", &p.AckDelay),
		kv.Bind("stale-runstate", &p.StaleRunstate),
		kv.Bind("tick-jitter", &p.TickJitter),
		kv.Bind("stall-p", &p.StallProb),
		kv.Bind("stall-for", &p.StallFor),
		kv.Bind("blackout-every", &p.BlackoutEvery),
		kv.Bind("blackout-for", &p.BlackoutFor),
	}
}

// Validate rejects plans with probabilities outside [0, 1] or negative
// durations.
func (p Plan) Validate() error {
	for _, f := range p.Fields() {
		switch v := f.Dst().(type) {
		case *float64:
			if !(*v >= 0 && *v <= 1) {
				return fmt.Errorf("fault: %s=%v outside [0,1]", f.Key, *v)
			}
		case *sim.Time:
			if *v < 0 {
				return fmt.Errorf("fault: %s=%v negative", f.Key, *v)
			}
		}
	}
	if p.BlackoutEvery > 0 && p.BlackoutFor <= 0 {
		return fmt.Errorf("fault: blackout-every set but blackout-for is zero")
	}
	if p.BlackoutFor > 0 && p.BlackoutEvery <= 0 {
		return fmt.Errorf("fault: blackout-for set but blackout-every is zero")
	}
	if p.StallProb > 0 && p.StallFor <= 0 {
		return fmt.Errorf("fault: stall-p set but stall-for is zero")
	}
	return nil
}

// String renders the plan as a canonical spec that ParsePlan accepts:
// its non-zero fields in fixed order. The zero plan renders as "none".
func (p Plan) String() string {
	if s := p.Fields().NonZero(); s != "" {
		return s
	}
	return "none"
}

// ParsePlan parses a fault-plan spec in the kv grammar, where
// probability keys take floats in [0,1] and duration keys take Go
// durations ("50us", "2ms"). "", "none" and "off" parse as the zero
// plan. The result of Plan.String always round-trips.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "", "none", "off":
		return p, nil
	}
	if err := p.Fields().Parse(spec); err != nil {
		return Plan{}, fmt.Errorf("fault: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// LossPlan is the standard chaos mix at loss rate r used by the chaos
// sweep: SA vIRQs drop at r and duplicate at r/2 with up to 30 µs
// delivery delay, SA acks are lost at r/2, wakeup kicks drop at r/4,
// and runstate snapshots may be 200 µs stale.
func LossPlan(r float64) Plan {
	return Plan{
		DropSA:        r,
		DupSA:         r / 2,
		DelaySA:       30 * sim.Microsecond,
		DropWake:      r / 4,
		AckLoss:       r / 2,
		StaleRunstate: 200 * sim.Microsecond,
	}
}

// Kind names one fault channel, used for injection counters.
type Kind int

const (
	KindSADrop Kind = iota + 1
	KindSADup
	KindSADelay
	KindWakeDrop
	KindWakeDup
	KindWakeDelay
	KindAckLoss
	KindAckDelay
	KindStaleRunstate
	KindTickJitter
	KindMigratorStall
	KindBlackout
	kindMax
)

func (k Kind) String() string {
	switch k {
	case KindSADrop:
		return "sa-drop"
	case KindSADup:
		return "sa-dup"
	case KindSADelay:
		return "sa-delay"
	case KindWakeDrop:
		return "wake-drop"
	case KindWakeDup:
		return "wake-dup"
	case KindWakeDelay:
		return "wake-delay"
	case KindAckLoss:
		return "ack-loss"
	case KindAckDelay:
		return "ack-delay"
	case KindStaleRunstate:
		return "stale-runstate"
	case KindTickJitter:
		return "tick-jitter"
	case KindMigratorStall:
		return "migrator-stall"
	case KindBlackout:
		return "blackout"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Injector draws fault decisions for one run. Create with NewInjector;
// a nil *Injector never injects.
type Injector struct {
	plan Plan

	// One independent stream per channel so fault classes do not
	// perturb each other's draws.
	saRNG       *sim.RNG
	wakeRNG     *sim.RNG
	ackRNG      *sim.RNG
	tickRNG     *sim.RNG
	migratorRNG *sim.RNG
	blackoutRNG *sim.RNG

	counts [kindMax]int64
}

// NewInjector builds an injector for plan seeded with seed.
func NewInjector(plan Plan, seed uint64) *Injector {
	root := sim.NewRNG(seed ^ 0xfa017eed)
	return &Injector{
		plan:        plan,
		saRNG:       root.Fork(1),
		wakeRNG:     root.Fork(2),
		ackRNG:      root.Fork(3),
		tickRNG:     root.Fork(4),
		migratorRNG: root.Fork(5),
		blackoutRNG: root.Fork(6),
	}
}

// AttachMetrics registers a view of each channel's injection count on
// reg (fault_injected_total{sub="fault",kind=...}). No-op on a nil
// injector.
func (in *Injector) AttachMetrics(reg *obs.Registry) {
	if in == nil {
		return
	}
	for k := Kind(1); k < kindMax; k++ {
		reg.CounterFunc("fault_injected_total", obs.Labels{Sub: "fault", Kind: k.String()}, obs.Field(&in.counts[k]))
	}
}

// Plan returns the injector's plan (the zero plan on a nil injector).
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// record counts one injected fault.
func (in *Injector) record(k Kind) {
	in.counts[k]++
}

// Count reports how many faults of kind k were injected so far.
func (in *Injector) Count(k Kind) int64 {
	if in == nil {
		return 0
	}
	return in.counts[k]
}

// Total reports the total number of injected faults.
func (in *Injector) Total() int64 {
	if in == nil {
		return 0
	}
	var t int64
	for _, c := range in.counts {
		t += c
	}
	return t
}

// CountsLine renders the non-zero injection counts as "kind=n" pairs in
// kind order, for summary tables. Empty when nothing was injected.
func (in *Injector) CountsLine() string {
	if in == nil {
		return ""
	}
	var parts []string
	for k := Kind(1); k < kindMax; k++ {
		if in.counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, in.counts[k]))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// delivery draws one vIRQ-delivery decision from rng.
func (in *Injector) delivery(rng *sim.RNG, drop, dup float64, maxDelay sim.Time,
	dropK, dupK, delayK Kind) (dropped bool, delays []sim.Time) {
	if drop == 0 && dup == 0 && maxDelay == 0 {
		return false, nil
	}
	if drop > 0 && rng.Float64() < drop {
		in.record(dropK)
		return true, nil
	}
	d := sim.Time(0)
	if maxDelay > 0 {
		d = sim.Time(rng.Float64() * float64(maxDelay))
		if d > 0 {
			in.record(delayK)
		}
	}
	delays = []sim.Time{d}
	if dup > 0 && rng.Float64() < dup {
		in.record(dupK)
		// The duplicate trails the original by an extra draw from the
		// same window (at least 1 ns so orderings stay stable).
		extra := sim.Time(1)
		if maxDelay > 0 {
			extra += sim.Time(rng.Float64() * float64(maxDelay))
		}
		delays = append(delays, d+extra)
	}
	return false, delays
}

// SADelivery decides the fate of one VIRQ_SA_UPCALL delivery: dropped
// outright, or delivered once (or twice, when duplicated) after the
// returned delays. A nil slice with dropped=false means "deliver now".
func (in *Injector) SADelivery() (dropped bool, delays []sim.Time) {
	if in == nil {
		return false, nil
	}
	return in.delivery(in.saRNG, in.plan.DropSA, in.plan.DupSA, in.plan.DelaySA,
		KindSADrop, KindSADup, KindSADelay)
}

// WakeDelivery decides the fate of one IRQKick wakeup notification.
func (in *Injector) WakeDelivery() (dropped bool, delays []sim.Time) {
	if in == nil {
		return false, nil
	}
	return in.delivery(in.wakeRNG, in.plan.DropWake, in.plan.DupWake, in.plan.DelayWake,
		KindWakeDrop, KindWakeDup, KindWakeDelay)
}

// AckFault decides the fate of one SA-acknowledging sched_op hypercall:
// lost entirely, or delayed by the returned latency (0 = on time).
func (in *Injector) AckFault() (lost bool, delay sim.Time) {
	if in == nil || (in.plan.AckLoss == 0 && in.plan.AckDelay == 0) {
		return false, 0
	}
	if in.plan.AckLoss > 0 && in.ackRNG.Float64() < in.plan.AckLoss {
		in.record(KindAckLoss)
		return true, 0
	}
	if in.plan.AckDelay > 0 {
		delay = sim.Time(in.ackRNG.Float64() * float64(in.plan.AckDelay))
		if delay > 0 {
			in.record(KindAckDelay)
		}
	}
	return false, delay
}

// RunstateMaxAge returns how stale a served VCPUOP_get_runstate
// snapshot may be (0 = always fresh).
func (in *Injector) RunstateMaxAge() sim.Time {
	if in == nil {
		return 0
	}
	return in.plan.StaleRunstate
}

// RecordStaleServe counts one runstate request answered from a stale
// snapshot.
func (in *Injector) RecordStaleServe() {
	if in != nil {
		in.record(KindStaleRunstate)
	}
}

// TickDelay returns the extra latency to add to a guest timer tick of
// the given period (uniform in [0, period*TickJitter]).
func (in *Injector) TickDelay(period sim.Time) sim.Time {
	if in == nil || in.plan.TickJitter == 0 || period <= 0 {
		return 0
	}
	d := sim.Time(in.tickRNG.Float64() * in.plan.TickJitter * float64(period))
	if d > 0 {
		in.record(KindTickJitter)
	}
	return d
}

// MigratorStall returns how long the migrator thread stalls before
// processing this batch (0 = no stall).
func (in *Injector) MigratorStall() sim.Time {
	if in == nil || in.plan.StallProb == 0 {
		return 0
	}
	if in.migratorRNG.Float64() < in.plan.StallProb {
		in.record(KindMigratorStall)
		return in.plan.StallFor
	}
	return 0
}

// BlackoutSchedule returns the blackout period and duration (0, 0 when
// blackouts are disabled).
func (in *Injector) BlackoutSchedule() (every, dur sim.Time) {
	if in == nil {
		return 0, 0
	}
	return in.plan.BlackoutEvery, in.plan.BlackoutFor
}

// BlackoutPick chooses the index of the vCPU to pause among n
// candidates and counts the blackout.
func (in *Injector) BlackoutPick(n int) int {
	if in == nil || n <= 0 {
		return 0
	}
	in.record(KindBlackout)
	return in.blackoutRNG.Intn(n)
}
