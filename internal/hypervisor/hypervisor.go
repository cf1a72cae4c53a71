package hypervisor

import (
	"fmt"
	"strconv"

	"repro/internal/decision"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Strategy selects the hypervisor-level scheduling policy under test.
type Strategy int

const (
	// StrategyVanilla is the unmodified credit scheduler (baseline).
	StrategyVanilla Strategy = iota + 1
	// StrategyPLE adds pause-loop-exiting spin detection: a vCPU that
	// spins beyond a window is forced to yield.
	StrategyPLE
	// StrategyRelaxedCo adds VMware-style relaxed co-scheduling: the
	// leading vCPU of a skewed VM is stopped and swapped with its most
	// lagging sibling at every accounting period.
	StrategyRelaxedCo
	// StrategyIRS adds the scheduler-activation sender: the guest is
	// notified before involuntary preemption so it can rebalance.
	StrategyIRS
	// StrategyStrictCo is VMware ESX 2.x-style strict co-scheduling:
	// all vCPUs of an SMP VM are scheduled and descheduled
	// synchronously in rotating gang slots (§2.1).
	StrategyStrictCo
)

func (s Strategy) String() string {
	switch s {
	case StrategyVanilla:
		return "vanilla"
	case StrategyPLE:
		return "ple"
	case StrategyRelaxedCo:
		return "relaxed-co"
	case StrategyIRS:
		return "irs"
	case StrategyStrictCo:
		return "strict-co"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// The paper's Xen 4.5 credit-scheduler setup. These are properties of
// the modelled system, not variables of the study, so they are fixed.
const (
	// timeslice is the scheduling quantum (Xen credit: 30 ms).
	timeslice = 30 * sim.Millisecond
	// CreditTick is the credit-burn tick (Xen credit: 10 ms).
	CreditTick = 10 * sim.Millisecond
	// accountPeriod is the credit refill / accounting period (30 ms).
	accountPeriod = 30 * sim.Millisecond
	// ratelimit is the minimum uninterrupted run before a wakeup may
	// preempt (Xen sched_ratelimit_us = 1000).
	ratelimit = 1 * sim.Millisecond
	// pleWindow is how long continuous spinning runs before the
	// pause-loop exit fires and the vCPU is forced to yield.
	pleWindow = 25 * sim.Microsecond
	// coSkewThreshold is the execution-skew bound for relaxed
	// co-scheduling; beyond it the leader is parked (see coPark).
	coSkewThreshold = 15 * sim.Millisecond
)

// Config holds hypervisor tunables. DefaultConfig matches the paper's
// Xen 4.5 credit-scheduler setup.
type Config struct {
	PCPUs    int
	Strategy Strategy

	// SALimit is the hard deadline for a guest to acknowledge a
	// scheduler activation before the hypervisor preempts anyway.
	SALimit sim.Time

	// SABreakerN, when positive, arms a per-vCPU circuit breaker in the
	// SA sender: after N consecutive hard-limit expiries the sender
	// stops activating that vCPU and falls back to plain preemption,
	// re-probing once per SABreakerCooldown (half-open). 0 disables the
	// breaker, preserving the paper's unconditional protocol.
	SABreakerN        int
	SABreakerCooldown sim.Time

	// Faults, when non-nil, injects deterministic control-plane faults
	// (dropped/delayed/duplicated vIRQs, lossy SA acks, stale runstate
	// snapshots, vCPU blackouts). Nil injects nothing.
	Faults *fault.Injector

	// LoadBalance enables hypervisor-level vCPU balancing (wake
	// placement, idle stealing, periodic re-pick) for unpinned vCPUs.
	LoadBalance bool
	// RepickEpsilon is the probability that the periodic balancer moves
	// a vCPU between equally loaded pCPUs, modelling placement noise in
	// real schedulers. Only meaningful with LoadBalance.
	RepickEpsilon float64

	// TickJitter, when positive, randomizes credit-tick sampling: each
	// pCPU re-arms its next tick after CreditTick scaled by a uniform factor
	// in [1-TickJitter, 1+TickJitter], drawn from a per-pCPU stream
	// forked from Seed (mean period, and hence total debit rate, is
	// preserved). 0 keeps credit1's aligned tick grid — whose
	// predictability is what tick-evasion attacks exploit. Must be in
	// [0, 1).
	TickJitter float64

	// ExactAccounting replaces tick-sampled debiting with exact
	// runstate-based charging: a vCPU owes credits for the nanoseconds
	// it actually ran (creditsPerTick per CreditTick of runtime), settled at
	// every tick and every deschedule. This closes the theft channel of
	// a vCPU that arranges never to be on-CPU when the tick fires, and
	// also fixes the converse misattribution (paying a full tick after
	// a mid-tick dispatch).
	ExactAccounting bool

	// Trace, when non-nil, records scheduling events.
	Trace *trace.Log

	// Decisions, when non-nil, records the credit scheduler's BOOST
	// grants and involuntary preemptions into the cluster-wide
	// decision log (kinds boost and preempt; see internal/decision).
	// Nil — or a ring whose kind mask excludes both — costs one
	// nil-and-mask test per hook and allocates nothing.
	Decisions *decision.Ring

	Seed uint64
}

// DefaultConfig returns the paper's Xen-like parameters for n pCPUs.
func DefaultConfig(n int) Config {
	return Config{
		PCPUs:         n,
		Strategy:      StrategyVanilla,
		SALimit:       100 * sim.Microsecond,
		RepickEpsilon: 0.15,
		Seed:          1,
	}
}

// Hypervisor ties pCPUs, VMs and the credit scheduler together.
type Hypervisor struct {
	eng   *sim.Engine
	cfg   Config
	pcpus []*PCPU
	vms   []*VM
	rng   *sim.RNG

	gangSlot   int
	gangActive *VM

	pleYields      int64
	saPendingN     int64
	saDelaySum     sim.Time
	saDelayMax     sim.Time
	vcpuMigrations int64
	stealAttempts  int64
	stealMoves     int64

	// staleRS caches per-vCPU runstate snapshots when the fault plan
	// serves stale VCPUOP_get_runstate answers.
	staleRS map[*VCPU]rsSnap

	// repickScratch is repickVCPU's equally-loaded candidate buffer,
	// reused so the periodic re-pick does not allocate.
	repickScratch []*PCPU

	// occObs, when set, observes every completed pCPU occupancy
	// interval: VM vm held pCPU p for dur, ending now. It fires at the
	// deschedule choke point, so the watchdog's attribution engine sees
	// exact per-(VM, pCPU) occupancy without touching the hot path of
	// unwatched runs (one nil check).
	occObs func(vm *VM, p *PCPU, dur sim.Time)
}

// New creates a hypervisor with cfg.PCPUs physical CPUs and starts its
// periodic tick and accounting machinery on eng.
func New(eng *sim.Engine, cfg Config) *Hypervisor {
	if cfg.PCPUs <= 0 {
		panic("hypervisor: need at least one pCPU")
	}
	if cfg.TickJitter < 0 || cfg.TickJitter >= 1 {
		panic("hypervisor: TickJitter must be in [0, 1)")
	}
	h := &Hypervisor{
		eng: eng,
		cfg: cfg,
		rng: sim.NewRNG(cfg.Seed ^ 0xda7a5eed),
	}
	for i := 0; i < cfg.PCPUs; i++ {
		p := &PCPU{ID: i, hv: h, name: "p" + strconv.Itoa(i)}
		p.sliceFn = func() { h.sliceExpired(p) }
		p.ratelimitFn = func() { h.checkPreempt(p) }
		h.pcpus = append(h.pcpus, p)
		if cfg.TickJitter > 0 {
			// Jittered-tick defense: each pCPU owns a self-re-arming tick
			// chain whose next delay is drawn from an independent stream,
			// so a guest cannot predict sampling instants from wall time.
			tickRNG := h.rng.Fork(0x71c0 + uint64(i))
			var fire func()
			fire = func() {
				h.tick(p)
				h.eng.After(tickRNG.Jitter(CreditTick, cfg.TickJitter), fire)
			}
			h.eng.After(tickRNG.Jitter(CreditTick, cfg.TickJitter), fire)
		} else {
			// All pCPU ticks share one aligned grid, as in Xen where the
			// credit scheduler's ticks derive from a common periodic timer.
			eng.Every(CreditTick, func() { h.tick(p) })
		}
	}
	eng.Every(accountPeriod, h.account)
	if cfg.Strategy == StrategyStrictCo {
		eng.Every(timeslice, h.strictCoRotate)
	}
	if every, dur := cfg.Faults.BlackoutSchedule(); every > 0 {
		eng.Every(every, func() { h.blackout(dur) })
	}
	return h
}

// SetOccupancyObserver registers fn to receive every completed pCPU
// occupancy interval (nil disables). One observer per hypervisor.
func (h *Hypervisor) SetOccupancyObserver(fn func(vm *VM, p *PCPU, dur sim.Time)) {
	h.occObs = fn
}

// SyncOccupancyAccounting flushes the currently accruing occupancy
// interval of every busy pCPU to the occupancy observer and restarts
// the interval at now, mirroring SyncRunstateAccounting: callers
// sampling occupancy as a windowed signal invoke this first so
// long-running vCPUs don't hide inside an open interval.
func (h *Hypervisor) SyncOccupancyAccounting() {
	if h.occObs == nil {
		return
	}
	now := h.eng.Now()
	for _, p := range h.pcpus {
		if v := p.current; v != nil {
			if d := now - v.occSince; d > 0 {
				h.occObs(v.VM, p, d)
			}
			v.occSince = now
		}
	}
}

// Engine exposes the simulation engine driving this hypervisor.
func (h *Hypervisor) Engine() *sim.Engine { return h.eng }

// Config returns the active configuration.
func (h *Hypervisor) Config() Config { return h.cfg }

// PCPU returns physical CPU i.
func (h *Hypervisor) PCPU(i int) *PCPU { return h.pcpus[i] }

// PCPUs returns all physical CPUs.
func (h *Hypervisor) PCPUs() []*PCPU { return h.pcpus }

// VMs returns all created VMs.
func (h *Hypervisor) VMs() []*VM { return h.vms }

// Now returns the current virtual time.
func (h *Hypervisor) Now() sim.Time { return h.eng.Now() }

// NewVM creates an SMP VM with nvcpus virtual CPUs. Guest contexts must
// be registered with RegisterGuest before StartVCPU.
func (h *Hypervisor) NewVM(name string, nvcpus, weight int, saCapable bool) *VM {
	vm := &VM{
		ID:        len(h.vms),
		Name:      name,
		Weight:    weight,
		hv:        h,
		SACapable: saCapable,
	}
	for i := 0; i < nvcpus; i++ {
		v := &VCPU{
			ID:       i,
			VM:       vm,
			hv:       h,
			name:     name + "/v" + strconv.Itoa(i),
			state:    StateOffline,
			prio:     PrioUnder,
			assigned: h.pcpus[i%len(h.pcpus)],
		}
		v.bindHandlers()
		vm.VCPUs = append(vm.VCPUs, v)
	}
	h.vms = append(h.vms, vm)
	return vm
}

// AttachMetrics registers read-only views of the hypervisor's own
// accounting on reg: work stealing, vCPU migrations and PLE yields;
// per pCPU its context switches and run-queue length; per VM its SA
// round trips, LHP/LWP, boosts and credits; per vCPU its folded
// runstate times and involuntary preemptions. The preempt-wait and
// SA-ack histograms are the only pushed metrics, since they need every
// sample. Call it once, after the last NewVM.
func (h *Hypervisor) AttachMetrics(reg *obs.Registry) {
	hvL := obs.Labels{Sub: "hv"}
	reg.CounterFunc("hv_steal_attempts_total", hvL, obs.Field(&h.stealAttempts))
	reg.CounterFunc("hv_steal_moves_total", hvL, obs.Field(&h.stealMoves))
	reg.CounterFunc("hv_vcpu_migrations_total", hvL, obs.Field(&h.vcpuMigrations))
	reg.CounterFunc("hv_ple_yields_total", hvL, obs.Field(&h.pleYields))
	for _, p := range h.pcpus {
		pL := obs.Labels{Sub: "hv", CPU: p.Name()}
		reg.CounterFunc("hv_ctx_switches_total", pL, obs.Field(&p.switches))
		reg.GaugeFunc("hv_runq_len", pL, func() float64 {
			return float64(p.QueueLen() + btoi(p.current != nil))
		})
	}
	for _, vm := range h.vms {
		vmL := obs.Labels{Sub: "hv", VM: vm.Name}
		vm.mPreemptWait = reg.Histogram("hv_preempt_wait_ns", vmL)
		vm.mSAAck = reg.Histogram("hv_sa_ack_ns", vmL)
		reg.CounterFunc("hv_sa_sent_total", vmL, obs.Field(&vm.saSent))
		reg.CounterFunc("hv_sa_acked_total", vmL, obs.Field(&vm.saAcked))
		reg.CounterFunc("hv_sa_expired_total", vmL, obs.Field(&vm.saExpired))
		reg.CounterFunc("hv_sa_fallback_total", vmL, obs.Field(&vm.saFallbacks))
		reg.CounterFunc("hv_sa_breaker_opens_total", vmL, obs.Field(&vm.saBreakerOpens))
		reg.CounterFunc("hv_lhp_total", vmL, obs.Field(&vm.LHPCount))
		reg.CounterFunc("hv_lwp_total", vmL, obs.Field(&vm.LWPCount))
		reg.CounterFunc("hv_boost_total", vmL, obs.Field(&vm.BoostGrants))
		reg.CounterFunc("hv_credits_granted_total", vmL, obs.Field(&vm.creditsGranted))
		reg.CounterFunc("hv_credits_debited_total", vmL, obs.Field(&vm.CreditsDebited))
		for _, v := range vm.VCPUs {
			vL := obs.Labels{Sub: "hv", VM: vm.Name, CPU: v.Name()}
			reg.CounterFunc("hv_preemptions_total", vL, obs.Field(&v.preemptions))
			for s := StateRunning; s <= StateOffline; s++ {
				vL.Kind = s.String()
				reg.CounterFunc("hv_runstate_ns", vL, obs.Field(&v.stateTime[s]))
			}
		}
	}
}

// RegisterGuest binds the guest-kernel context for one vCPU.
func (h *Hypervisor) RegisterGuest(v *VCPU, ctx GuestContext) { v.ctx = ctx }

// StartVCPU brings a vCPU online in the runnable state and enqueues it.
func (h *Hypervisor) StartVCPU(v *VCPU) {
	if v.ctx == nil {
		panic("hypervisor: StartVCPU before RegisterGuest for " + v.Name())
	}
	if v.state != StateOffline {
		return
	}
	v.stateSince = h.eng.Now()
	v.startedAt = h.eng.Now()
	v.started = true
	v.state = StateRunnable
	p := h.placeVCPU(v)
	v.assigned = p
	p.enqueue(v)
	h.checkPreempt(p)
}

// SAStats reports scheduler-activation round-trip statistics:
// notifications sent, acknowledged, expired at the hard limit, still
// pending (in-flight handshakes), and the mean/max guest handling
// delay. The counts obey sent == acked + expired + pending even under
// dropped or duplicated delivery.
func (h *Hypervisor) SAStats() (sent, acked, expired, pending int64, meanDelay, maxDelay sim.Time) {
	for _, vm := range h.vms {
		sent += vm.saSent
		acked += vm.saAcked
		expired += vm.saExpired
	}
	if acked > 0 {
		meanDelay = h.saDelaySum / sim.Time(acked)
	}
	return sent, acked, expired, h.saPendingN, meanDelay, h.saDelayMax
}

// SAFallbacks reports how many preemptions skipped the SA handshake
// because the per-vCPU circuit breaker was open.
func (h *Hypervisor) SAFallbacks() int64 {
	var n int64
	for _, vm := range h.vms {
		n += vm.saFallbacks
	}
	return n
}

// PLEYields reports how many pause-loop exits forced a yield.
func (h *Hypervisor) PLEYields() int64 { return h.pleYields }

// TheftStat is one VM's obtained-vs-fair-share CPU accounting over an
// elapsed interval: the theft metric of the adversarial-tenant
// experiments (DESIGN.md §13). Fair is the weight-proportional slice of
// total machine capacity assuming every VM wants CPU for the whole
// interval; Ratio is Obtained/Fair, so an honest tenant under full
// contention sits near 1.0 and a theft-of-service attacker above it.
type TheftStat struct {
	Name        string
	Obtained    sim.Time // cumulative runtime across the VM's vCPUs
	Fair        sim.Time // weight-proportional share of capacity
	Ratio       float64  // Obtained / Fair
	BoostGrants int64    // BOOST priorities granted on wake
	Debited     int64    // credits charged (tick-sampled or exact)
}

// TheftStats computes per-VM obtained-vs-fair-share accounting over the
// first elapsed time of the run, in VM creation order.
func (h *Hypervisor) TheftStats(elapsed sim.Time) []TheftStat {
	totalWeight := 0
	for _, vm := range h.vms {
		totalWeight += vm.Weight
	}
	capacity := elapsed * sim.Time(len(h.pcpus))
	stats := make([]TheftStat, 0, len(h.vms))
	for _, vm := range h.vms {
		st := TheftStat{
			Name:        vm.Name,
			Obtained:    vm.TotalRunTime(),
			BoostGrants: vm.BoostGrants,
			Debited:     vm.CreditsDebited,
		}
		if totalWeight > 0 {
			st.Fair = capacity * sim.Time(vm.Weight) / sim.Time(totalWeight)
		}
		if st.Fair > 0 {
			st.Ratio = float64(st.Obtained) / float64(st.Fair)
		}
		stats = append(stats, st)
	}
	return stats
}

// SyncCreditAccounting settles the exact-accounting debt of every
// currently running vCPU, so that after the call each vCPU's debited
// total equals the credits owed for its cumulative runtime. A no-op
// without ExactAccounting (tick sampling has no accruing debt).
func (h *Hypervisor) SyncCreditAccounting() {
	if !h.cfg.ExactAccounting {
		return
	}
	for _, p := range h.pcpus {
		if v := p.current; v != nil {
			h.debitExact(v)
		}
	}
}

// VCPUMigrations reports hypervisor-level vCPU-to-pCPU migrations.
func (h *Hypervisor) VCPUMigrations() int64 { return h.vcpuMigrations }
