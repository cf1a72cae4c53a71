package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/watch"
	"repro/internal/workload"
)

// The attack experiment quantifies credit-scheduler theft of service
// (DESIGN.md §13): an adversarial tenant (internal/workload attack
// specs) shares one pCPU with a latency-sensitive server and an honest
// CPU hog, all at equal credit weight, so every tenant's fair share is
// 1/3 of the machine. The table reports how much CPU the attacker
// actually obtained relative to that fair share, what it was billed,
// how the victim's tail latency suffered, and whether the watchdog's
// attribution engine fingers the attacker — under each combination of
// the two accounting defenses (jittered tick sampling and exact
// runstate-based debiting).

// Attack rig knobs, shared with cmd/irsim and cmd/irsweep.
const (
	// DefaultAttackDuration is the victim's request-stream duration;
	// the run ends when the stream completes.
	DefaultAttackDuration = 4 * sim.Second
	// DefaultAttackJitter is the tick-jitter fraction the "jitter" and
	// "both" defense rows apply.
	DefaultAttackJitter = 0.4
	// AttackOvershootCap is the CI gate: with both defenses on, the
	// attacker's obtained/fair ratio must not exceed this (i.e. it gets
	// at most 5% above its entitlement).
	AttackOvershootCap = 1.05
)

// AttackDefense is one hardening configuration of the credit accountant.
type AttackDefense struct {
	Name   string
	Jitter float64 // Config.TickJitter
	Exact  bool    // Config.ExactAccounting
}

// AttackDefenses lists the comparison rows in table order: undefended,
// each defense alone, then both together.
func AttackDefenses() []AttackDefense {
	return []AttackDefense{
		{Name: "vanilla"},
		{Name: "jitter", Jitter: DefaultAttackJitter},
		{Name: "exact", Exact: true},
		{Name: "both", Jitter: DefaultAttackJitter, Exact: true},
	}
}

// AttackAttackers lists the attacker specs the attack table sweeps.
func AttackAttackers() []workload.AttackSpec {
	return []workload.AttackSpec{
		{Kind: workload.AttackTickEvade},
		{Kind: workload.AttackBoostGame},
	}
}

// AttackOutcome is the measured result of one attacker × defense cell.
// Attacker is the full spec (kind plus any non-default knobs), so
// variants of one kind stay distinguishable.
type AttackOutcome struct {
	Attacker string
	Defense  string
	// Share is the fraction of total machine capacity the attacker
	// obtained; FairRatio is Share relative to its weight-proportional
	// entitlement (1.0 = exactly fair, >1 = theft).
	Share     float64
	FairRatio float64
	// HonestRatio is the honest hog's obtained/fair ratio — the mirror
	// image of the theft.
	HonestRatio float64
	VictimP99   sim.Time
	BoostGrants int64
	Debited     int64
	// TopAggressor is the watchdog attribution's top-ranked aggressor
	// for the victim (with its score), RunnerUp the second.
	TopAggressor string
	TopScore     float64
	RunnerUp     string
	Violations   int64
}

// RunAttack executes one attacker × defense cell: 1 pCPU, three
// equal-weight single-vCPU VMs — "attacker" (the adversarial tenant),
// "victim" (an open-loop server, marked sensitive for attribution) and
// "honest" (a plain CPU hog). Pure function of its arguments; safe on
// worker goroutines.
func RunAttack(spec workload.AttackSpec, d AttackDefense, seed uint64) (AttackOutcome, error) {
	// Closed-loop saturated server: the victim always wants CPU, so the
	// weight-proportional fair share (1/3 each) is every tenant's true
	// entitlement and per-request latency directly reflects how much of
	// it the scheduler actually delivers.
	rig := fmt.Sprintf("host:pcpus=1,horizon=%v; vm:name=attacker,kind=attacker,vcpus=1; "+
		"vm:name=victim,kind=server,vcpus=1,threads=1,service=300us,duration=%v; vm:name=honest,kind=hog,vcpus=1; attack:%s",
		(DefaultAttackDuration + 10*sim.Second).Std(), DefaultAttackDuration.Std(), spec)
	scn, err := rigScenario(rig, core.StrategyVanilla, seed)
	if err != nil {
		return AttackOutcome{}, err
	}
	scn.TuneHV = func(c *hypervisor.Config) {
		c.TickJitter = d.Jitter
		c.ExactAccounting = d.Exact
	}
	scn.Invariants = true
	c, err := core.Build(scn)
	if err != nil {
		return AttackOutcome{}, err
	}

	// Wire the single-host watchdog by hand (the cluster layer does the
	// same dance per host): occupancy intervals stream in for
	// attribution, per-VM pain is pushed each epoch.
	w := watch.New(watch.Config{})
	for _, vmSpec := range scn.VMs {
		w.RegisterVM(watch.VMInfo{
			Name: vmSpec.Name, Host: "h0", VCPUs: vmSpec.VCPUs,
			Sensitive: vmSpec.Name == "victim",
		})
	}
	c.HV.SetOccupancyObserver(func(vm *hypervisor.VM, p *hypervisor.PCPU, dur sim.Time) {
		w.AddOccupancy(c.Engine.Now(), "h0", vm.Name, p.Name(), dur)
	})
	w.AddFeed(func(now sim.Time) {
		// Not a pure read: the fold cuts in-progress preempt waits, so
		// removing it would move the attack goldens.
		c.HV.SyncRunstateAccounting()
		c.HV.SyncOccupancyAccounting()
		for _, vm := range c.HV.VMs() {
			w.FeedPain(now, "h0", vm.Name, vm.TotalStealTime()+vm.PreemptWait)
		}
	})
	c.Engine.Every(watch.Interval, func() { w.RunEpoch(c.Engine.Now()) })

	res, err := c.Run()
	if err != nil {
		return AttackOutcome{}, err
	}
	c.HV.SyncCreditAccounting()

	out := AttackOutcome{
		Attacker:   spec.String(),
		Defense:    d.Name,
		Violations: res.Violations,
	}
	capacity := res.Elapsed * sim.Time(scn.PCPUs)
	for _, st := range c.HV.TheftStats(res.Elapsed) {
		switch st.Name {
		case "attacker":
			if capacity > 0 {
				out.Share = float64(st.Obtained) / float64(capacity)
			}
			out.FairRatio = st.Ratio
			out.BoostGrants = st.BoostGrants
			out.Debited = st.Debited
		case "honest":
			out.HonestRatio = st.Ratio
		}
	}
	if st := res.VM("victim").Instance.Server; st.Requests > 0 {
		out.VictimP99 = st.Latency.Percentile(99)
	}
	ranked, _ := w.AttributeAt(c.Engine.Now(), res.Elapsed)
	for _, r := range ranked {
		if r.Victim != "victim" {
			continue
		}
		if out.TopAggressor == "" {
			out.TopAggressor, out.TopScore = r.Aggressor, r.Score
		} else if out.RunnerUp == "" {
			out.RunnerUp = r.Aggressor
		}
	}
	return out, nil
}

// AttackColumns is the attack table header, shared with the CLIs.
func AttackColumns() []string {
	return []string{"attacker", "defense", "share", "fair-ratio", "honest-ratio",
		"boosts", "debited", "victim-p99", "top-aggressor", "score", "viol"}
}

// AttackRow renders one outcome as a table row, shared with the CLIs.
func AttackRow(o AttackOutcome) []string {
	p99 := "-"
	if o.VictimP99 > 0 {
		p99 = fmtLatency(o.VictimP99)
	}
	top := "-"
	if o.TopAggressor != "" {
		top = o.TopAggressor
	}
	return []string{
		o.Attacker,
		o.Defense,
		fmt.Sprintf("%.3f", o.Share),
		fmt.Sprintf("%.3f", o.FairRatio),
		fmt.Sprintf("%.3f", o.HonestRatio),
		fmt.Sprintf("%d", o.BoostGrants),
		fmt.Sprintf("%d", o.Debited),
		p99,
		top,
		fmt.Sprintf("%.4f", o.TopScore),
		fmt.Sprintf("%d", o.Violations),
	}
}

// attackTable runs the attacker × defense matrix and reports the theft and
// defense table (the adversarial-tenant experiment).
func attackTable(h *harness) Table {
	t := Table{
		ID:      "attack",
		Title:   "Credit-scheduler theft of service: attacker share vs defenses (1 pCPU, 3 equal-weight tenants, fair share 1/3)",
		Columns: AttackColumns(),
	}
	seed := h.opt.Seed
	for _, spec := range AttackAttackers() {
		for _, d := range AttackDefenses() {
			key := fmt.Sprintf("attack|%s|%s", spec.String(), d.Name)
			row, err := tryJob(h, key, func() ([]string, error) {
				o, err := RunAttack(spec, d, seed)
				if err != nil {
					return nil, err
				}
				return AttackRow(o), nil
			})
			if err == nil {
				t.Rows = append(t.Rows, row)
			}
		}
	}
	return t
}
