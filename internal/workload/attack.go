package workload

import (
	"fmt"
	"strings"

	"repro/internal/guest"
	"repro/internal/kv"
	"repro/internal/sim"
)

// This file models adversarial tenants: guest programs that game the
// credit scheduler's accounting instead of doing useful work, after
// "Scheduler Vulnerabilities and Attacks in Cloud Computing" (Zhou et
// al., PAPERS.md). Two attack families are implemented:
//
//   - tick-evade: the guest knows the hypervisor samples credit debits
//     on a periodic tick (Xen credit1: 10 ms, aligned). It computes
//     wall-clock phase, runs flat out between ticks, and sleeps across
//     each sampling instant — so under vanilla accounting it is never
//     on-CPU when the bill arrives. Sleeping also re-enters BOOST on
//     every wake, compounding the theft.
//   - boost-game: a sleep/wake duty cycle tuned to re-enter the
//     transient PrioBoost class as often as the ratelimit allows,
//     jumping honest CPU-bound tenants in the runqueue.
//
// Both are deterministic and seeded; the optional jitter knob perturbs
// the attacker's own timing (modelling imperfect guest timers) from a
// forked per-thread stream, never from global state.

// AttackKind discriminates the attacker families.
type AttackKind int

const (
	// AttackNone is the zero spec: no attacker.
	AttackNone AttackKind = iota
	// AttackTickEvade sleeps across each credit-sampling tick.
	AttackTickEvade
	// AttackBoostGame sleep/wake cycles to farm BOOST priority.
	AttackBoostGame
)

func (k AttackKind) String() string {
	switch k {
	case AttackNone:
		return "none"
	case AttackTickEvade:
		return "tick-evade"
	case AttackBoostGame:
		return "boost-game"
	default:
		return fmt.Sprintf("AttackKind(%d)", int(k))
	}
}

// AttackSpec parameterizes one attacker. The zero value is "no
// attacker"; unset fields take the defaults documented per field (see
// withDefaults). Specs parse from strings (ParseAttack) so the CLIs can
// drive attackers from flags, mirroring fault.ParsePlan.
type AttackSpec struct {
	Kind AttackKind

	// Period is the sampling tick the evader hides from (default: the
	// hypervisor's 10 ms credit tick).
	Period sim.Time
	// Margin is how long before each predicted tick the evader goes to
	// sleep — its safety margin against dispatch latency (default
	// 500 µs).
	Margin sim.Time
	// Resume is how long after the predicted tick the evader wakes
	// (default 50 µs).
	Resume sim.Time

	// Run and Sleep are the boost-gamer's duty cycle: run flat out for
	// Run, sleep Sleep to re-arm the wake boost (defaults 900 µs /
	// 100 µs — just above the 1 ms ratelimit when combined).
	Run   sim.Time
	Sleep sim.Time

	// Threads is how many attacker tasks to spawn (default 1; they are
	// placed round-robin over the guest CPUs).
	Threads int

	// Jitter scales each cycle's durations by a uniform factor in
	// [1-Jitter, 1+Jitter] from a seeded per-thread stream, modelling
	// an attacker with imperfect timer knowledge. 0 = exact timing.
	Jitter float64
}

// Zero reports whether the spec describes no attacker.
func (s AttackSpec) Zero() bool { return s == AttackSpec{} }

// withDefaults fills unset fields with the documented defaults.
func (s AttackSpec) withDefaults() AttackSpec {
	if s.Period == 0 {
		s.Period = 10 * sim.Millisecond
	}
	if s.Margin == 0 {
		s.Margin = 500 * sim.Microsecond
	}
	if s.Resume == 0 {
		s.Resume = 50 * sim.Microsecond
	}
	if s.Run == 0 {
		s.Run = 900 * sim.Microsecond
	}
	if s.Sleep == 0 {
		s.Sleep = 100 * sim.Microsecond
	}
	if s.Threads == 0 {
		s.Threads = 1
	}
	return s
}

// Validate rejects malformed specs: fields without a kind, negative or
// out-of-range knobs, or an evasion window wider than the period.
func (s AttackSpec) Validate() error {
	if s.Kind == AttackNone {
		if !s.Zero() {
			return fmt.Errorf("workload: attack fields set without a kind")
		}
		return nil
	}
	if s.Kind != AttackTickEvade && s.Kind != AttackBoostGame {
		return fmt.Errorf("workload: unknown attack kind %d", int(s.Kind))
	}
	for _, f := range s.fields() {
		if d, ok := f.Dst().(*sim.Time); ok && *d < 0 {
			return fmt.Errorf("workload: attack %s=%v negative", f.Key, *d)
		}
	}
	if s.Threads < 0 {
		return fmt.Errorf("workload: attack threads=%d negative", s.Threads)
	}
	if !(s.Jitter >= 0 && s.Jitter < 1) {
		return fmt.Errorf("workload: attack jitter=%v outside [0, 1)", s.Jitter)
	}
	d := s.withDefaults()
	if d.Margin+d.Resume >= d.Period {
		return fmt.Errorf("workload: attack margin+resume (%v) must be below period (%v)",
			(d.Margin + d.Resume).Std(), d.Period.Std())
	}
	return nil
}

// fields is the spec's knob table, in render order.
func (s *AttackSpec) fields() kv.Table {
	return kv.Table{
		kv.Bind("period", &s.Period),
		kv.Bind("margin", &s.Margin),
		kv.Bind("resume", &s.Resume),
		kv.Bind("run", &s.Run),
		kv.Bind("sleep", &s.Sleep),
		kv.Bind("threads", &s.Threads),
		kv.Bind("jitter", &s.Jitter),
	}
}

// String renders the spec as a canonical string ParseAttack accepts:
// the kind followed by its non-zero (not defaulted) knobs in fixed
// order. The zero spec renders as "none".
func (s AttackSpec) String() string {
	if s.Kind == AttackNone {
		return "none"
	}
	if knobs := s.fields().NonZero(); knobs != "" {
		return s.Kind.String() + "," + knobs
	}
	return s.Kind.String()
}

// ParseAttack parses an attacker spec: a kind ("tick-evade" or
// "boost-game") optionally followed by a comma and knobs in the kv
// grammar (period, margin, resume, run, sleep as Go durations; threads
// as an int; jitter as a float in [0,1)). "", "none" and "off" parse
// as the zero spec. The result of AttackSpec.String always round-trips.
func ParseAttack(spec string) (AttackSpec, error) {
	var s AttackSpec
	kind, knobs, hasKnobs := strings.Cut(spec, ",")
	kind = strings.TrimSpace(kind)
	switch strings.ToLower(kind) {
	case "tick-evade":
		s.Kind = AttackTickEvade
	case "boost-game":
		s.Kind = AttackBoostGame
	case "", "none", "off":
		if !hasKnobs {
			return s, nil
		}
		fallthrough
	default:
		return AttackSpec{}, fmt.Errorf("workload: unknown attack kind %q (want tick-evade or boost-game)", kind)
	}
	if hasKnobs {
		if err := s.fields().Parse(knobs); err != nil {
			return AttackSpec{}, fmt.Errorf("workload: attack: %w", err)
		}
	}
	if err := s.Validate(); err != nil {
		return AttackSpec{}, err
	}
	return s, nil
}

// tickEvadeProg runs until just before each predicted sampling tick,
// then sleeps across it. The phase arithmetic works on wall clock, so a
// preemption that delays the compute segment past the danger window is
// detected and the pointless sleep skipped. The step's jittered margin
// is kept on the program, so the continuation is bound once.
type tickEvadeProg struct {
	spec   AttackSpec
	rng    *sim.RNG
	margin sim.Time                           // this step's danger window
	evade  func(t *guest.Task, resume func()) // p.dodge, bound once
}

func newTickEvade(spec AttackSpec, rng *sim.RNG) *tickEvadeProg {
	p := &tickEvadeProg{spec: spec, rng: rng}
	p.evade = p.dodge
	return p
}

func (p *tickEvadeProg) Step(t *guest.Task) guest.Action {
	now := t.Kernel().Now()
	p.margin = p.rng.Jitter(p.spec.Margin, p.spec.Jitter)
	phase := now % p.spec.Period
	runFor := p.spec.Period - p.margin - phase
	if runFor < 0 {
		runFor = 0
	}
	return guest.RunThen(runFor, p.evade)
}

// dodge ends a compute segment: inside the danger window it sleeps
// across the tick.
func (p *tickEvadeProg) dodge(t *guest.Task, resume func()) {
	k := t.Kernel()
	ph := k.Now() % p.spec.Period
	if ph >= p.spec.Period-p.margin {
		// Inside the danger window: hide from the imminent tick and
		// come back just after it — with a fresh BOOST, no less.
		k.SleepTask(t, p.spec.Period-ph+p.spec.Resume, resume)
		return
	}
	// The compute segment was stretched past the tick by contention;
	// sleeping now would only waste runnable time.
	resume()
}

// boostGameProg is a plain duty cycle: run, sleep, wake boosted,
// repeat.
type boostGameProg struct {
	spec  AttackSpec
	rng   *sim.RNG
	sleep func(t *guest.Task, resume func()) // p.nap, bound once
}

func newBoostGame(spec AttackSpec, rng *sim.RNG) *boostGameProg {
	p := &boostGameProg{spec: spec, rng: rng}
	p.sleep = p.nap
	return p
}

func (p *boostGameProg) Step(t *guest.Task) guest.Action {
	return guest.RunThen(p.rng.Jitter(p.spec.Run, p.spec.Jitter), p.sleep)
}

// nap sleeps for a jittered spell after each run.
func (p *boostGameProg) nap(t *guest.Task, resume func()) {
	t.Kernel().SleepTask(t, p.rng.Jitter(p.spec.Sleep, p.spec.Jitter), resume)
}

// NewAttacker instantiates the attacker described by spec on kern.
// Attackers never finish (Endless, like hogs); spec defaults are
// applied here, so sparse parsed specs work directly.
func NewAttacker(kern *guest.Kernel, spec AttackSpec, seed uint64) *Instance {
	if err := spec.Validate(); err != nil {
		panic(err.Error())
	}
	if spec.Kind == AttackNone {
		panic("workload: NewAttacker with no attack kind")
	}
	spec = spec.withDefaults()
	in := &Instance{Name: "attack-" + spec.Kind.String(), kern: kern, Endless: true}
	in.spawn = func() {
		rng := sim.NewRNG(seed ^ 0xa77acc)
		for i := 0; i < spec.Threads; i++ {
			var prog guest.Program
			switch spec.Kind {
			case AttackTickEvade:
				prog = newTickEvade(spec, rng.Fork(uint64(i)))
			default:
				prog = newBoostGame(spec, rng.Fork(uint64(i)))
			}
			kern.Spawn(fmt.Sprintf("atk-%d", i), prog, i%len(kern.CPUs()))
		}
	}
	return in
}
