// Package cluster models a rack of simulated hosts — each running the
// full hypervisor+guest stack on its own discrete-event engine shard —
// under a cluster scheduler that places incoming VMs by predicted
// interference, live-migrates whole VMs away from interference
// hot-spots, and routes an open-loop request stream across the server
// replicas so cluster-level tail latency and SLO-violation rate become
// first-class outputs.
//
// Execution is a conservative sharded discrete-event simulation
// (sim.ShardedEngine): shard 0 is the control plane (arrival stream +
// router), shards 1..Hosts are the hosts. Each round every shard runs
// independently up to the lookahead — the router's minimum transit
// latency, the floor on any cross-host interaction — then a barrier
// exchanges cross-host traffic and runs the control-plane tasks
// (placement, the migration state machine, blackouts, invariant audits,
// watchdog epochs) with every shard parked at one instant, exactly the
// semantics they had on a single shared engine.
//
// The paper fixes lock-holder preemption inside one host; this layer is
// the deployment surface above it: the per-host steal / preempt-wait /
// LHP telemetry that the IRS machinery exports (internal/obs) doubles
// as the placement signal, in the spirit of Angelou et al.'s resource-
// and interference-aware scheduling.
package cluster

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/decision"
	"repro/internal/fault"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/topology"
	"repro/internal/watch"
	"repro/internal/workload"
)

// VMKind classifies a cluster VM for placement purposes.
type VMKind int

const (
	// KindServer is a latency-sensitive request-serving VM; the router
	// spreads the cluster request stream across all live server VMs.
	KindServer VMKind = iota + 1
	// KindAntagonist is a CPU-bound batch VM with no latency SLO.
	KindAntagonist
)

func (k VMKind) String() string {
	switch k {
	case KindServer:
		return "server"
	case KindAntagonist:
		return "antagonist"
	default:
		return fmt.Sprintf("VMKind(%d)", int(k))
	}
}

// VMSpec describes one VM arriving at the cluster.
type VMSpec struct {
	Name  string
	Kind  VMKind
	VCPUs int
	// Weight is the credit-scheduler weight (default 256).
	Weight int
	// Threads is the worker-thread count for server VMs (default VCPUs).
	Threads int
	// ArriveAt is when the VM is submitted for placement.
	ArriveAt sim.Time
	// Pressure declares the VM's expected CPU demand in pCPUs, as a
	// cloud user declares resource requests. The interference-aware
	// policy uses it to bound the harm a newcomer does to resident
	// sensitive VMs before any measurement of the newcomer exists.
	Pressure float64
	// Sensitive marks latency-critical VMs (QoS class). Placement
	// keeps measured interference away from sensitive VMs and keeps
	// high-pressure newcomers away from hosts running them.
	Sensitive bool
}

// Control-plane constants. No rig varies them, so they are not
// configuration.
const (
	// lookahead is the router's transit latency and therefore the
	// conservative sync window: a quarter millisecond of simulated
	// network hop, comfortably under every control-plane cadence.
	lookahead = 250 * sim.Microsecond
	// monitorInterval is how often the interference signal is
	// refreshed (and migrations considered).
	monitorInterval = 500 * sim.Millisecond
	// stealTrigger is the per-vCPU steal fraction (time runnable but
	// not running, over the monitor window) above which a server VM is
	// considered to be suffering and becomes a migration victim.
	stealTrigger = 0.09
	// hotThreshold adds hysteresis: the victim's host must show more
	// than hotThreshold× the destination's interference score.
	hotThreshold = 1.3
	// migrationPause is the switchover downtime; copyPerVCPU the
	// pre-copy duration per vCPU (the VM keeps serving during the
	// copy); migrationCooldown the minimum gap between migrations of
	// one VM.
	migrationPause    = 25 * sim.Millisecond
	copyPerVCPU       = 40 * sim.Millisecond
	migrationCooldown = 3 * sim.Second
	// auditInterval is the invariant checkers' audit cadence.
	auditInterval = 50 * sim.Millisecond
)

// Config parameterizes a cluster run.
type Config struct {
	Hosts        int
	PCPUsPerHost int
	// Strategy is the per-host hypervisor scheduling strategy. Under
	// StrategyIRS every guest is SA-capable.
	Strategy hypervisor.Strategy
	// Policy selects the placement policy.
	Policy Policy
	// Overcommit bounds committed vCPUs per host at
	// Overcommit×PCPUsPerHost (soft for placement fallback).
	Overcommit float64

	// Deprecated: Shards is ignored. Host engine windows always run
	// inline on the calling goroutine; the field stays only for callers
	// that still set it.
	Shards int

	Seed uint64
	// Duration is how long the request stream runs; Drain is the extra
	// time the simulation continues so queues empty.
	Duration sim.Time
	Drain    sim.Time

	// VMs is the arrival sequence (ordered by ArriveAt).
	VMs []VMSpec

	// Service is the mean request service time; Arrival the mean
	// inter-arrival time of the cluster-wide request stream; SLO the
	// latency above which a request counts as an SLO violation.
	Service sim.Time
	Arrival sim.Time
	SLO     sim.Time

	// Migration enables hot-spot detection and live VM migration.
	Migration bool

	// HostBlackoutEvery, when positive, pauses every vCPU of one
	// randomly chosen host for HostBlackoutFor at each period — the
	// cluster-level fault model (rack power/management-plane events).
	HostBlackoutEvery sim.Time
	HostBlackoutFor   sim.Time
	// Faults, when non-zero, attaches a per-host fault injector with a
	// forked seed (control-plane message faults inside each host).
	Faults fault.Plan

	// Invariants attaches the runtime invariant checker to every host
	// hypervisor, every guest kernel, and the cluster itself.
	Invariants bool

	// TuneHV and TuneGuest, when non-nil, adjust each host's
	// hypervisor config and each guest kernel's config after defaults
	// are applied.
	TuneHV    func(*hypervisor.Config)
	TuneGuest func(*guest.Config)

	// Spans, when non-nil, mints a causal blame span for every routed
	// request; the span rides the request through replica queues, guest
	// scheduling, and migration carry-over (see internal/span).
	Spans *span.Tracer

	// Watch, when non-nil, attaches the online SLO watchdog: windowed
	// telemetry, burn-rate alerting over the router's violation signal,
	// noisy-neighbor attribution, and the incident flight recorder
	// (see internal/watch). Runs without it pay nothing.
	Watch *watch.Config

	// Decisions, when non-nil, attaches the decision audit log: every
	// control-plane choice (zone pick, placement, routing, autoscale,
	// migration, cordon) is recorded with its full candidate set and
	// inputs, per shard, and merged at barriers under the engine's own
	// canonical order — so the log does not depend on the order in
	// which host windows run (see internal/decision). Runs without it
	// pay nothing; Options.Kinds selects what is recorded (include
	// boost/preempt to also audit the per-vCPU scheduler stream on
	// every host).
	Decisions *decision.Options

	// Topology groups the hosts into zones for the two-level control
	// plane (see zone.go). Nil runs one flat zone — byte-identical to
	// the pre-zone cluster. Must cover exactly Hosts hosts.
	Topology *topology.Topology
	// Ramp, when non-empty, is a piecewise arrival schedule: stage k's
	// mean inter-arrival applies from its At until the next stage
	// (before the first stage, Arrival applies). Stages must advance.
	Ramp []topology.Stage
	// ZoneOutages injects zone-wide failures (requires a Topology
	// covering the named zones).
	ZoneOutages []ZoneOutage
	// Autoscale, when non-nil, runs the replica autoscaler against the
	// watchdog's burn-rate signal (requires Watch with rules).
	Autoscale *AutoscaleConfig
	// SLOPhases, when non-empty, splits served/violation counts into
	// len+1 phase buckets at these completion-time boundaries, so a
	// "recovered after the outage" rate is measurable.
	SLOPhases []sim.Time
}

// DefaultConfig returns the standard consolidation rig: three 4-pCPU
// hosts, a 20-second request stream, and the StandardMix arrival
// sequence of four server VMs interleaved with four antagonists.
func DefaultConfig() Config {
	return Config{
		Hosts:        3,
		PCPUsPerHost: 4,
		Strategy:     hypervisor.StrategyVanilla,
		Policy:       LeastLoaded,
		Overcommit:   1.5,
		Seed:         1,
		Duration:     20 * sim.Second,
		Drain:        2 * sim.Second,
		VMs:          StandardMix(4, 2, 4, 2, 1*sim.Second),
		Service:      2 * sim.Millisecond,
		Arrival:      1250 * sim.Microsecond,
		SLO:          20 * sim.Millisecond,
	}
}

// StandardVM declares a VM the way the standard mix does: a server is
// latency-sensitive and expects 0.4 pCPU of demand per vCPU, an
// antagonist a whole pCPU per vCPU.
func StandardVM(name string, kind VMKind, vcpus int, at sim.Time) VMSpec {
	v := VMSpec{Name: name, Kind: kind, VCPUs: vcpus, ArriveAt: at, Pressure: float64(vcpus)}
	if kind == KindServer {
		v.Pressure, v.Sensitive = 0.4*float64(vcpus), true
	}
	return v
}

// StandardMix builds the default arrival sequence: servers and
// antagonists alternating, one VM every spacing.
func StandardMix(servers, serverVCPUs, antagonists, antagonistVCPUs int, spacing sim.Time) []VMSpec {
	var out []VMSpec
	t := sim.Time(0)
	for si, ai := 0, 0; si < servers || ai < antagonists; {
		if si < servers {
			out = append(out, StandardVM(fmt.Sprintf("srv%d", si), KindServer, serverVCPUs, t))
			si++
			t += spacing
		}
		if ai < antagonists {
			out = append(out, StandardVM(fmt.Sprintf("ant%d", ai), KindAntagonist, antagonistVCPUs, t))
			ai++
			t += spacing
		}
	}
	return out
}

// bounceRec is a request that reached its host after the target gate
// sealed for a migration switchover; the barrier drain re-routes it.
type bounceRec struct {
	hd  *VMHandle
	req workload.Request
}

// Host is one simulated machine in the rack: a full hypervisor+guest
// stack on its own engine shard, with its own forked fault-injector
// stream and its own invariant checker. A host writes what it observes
// (served requests, deliveries, occupancy) straight into control-plane
// state as it happens; see drain for why that is safe.
type Host struct {
	ID  int
	HV  *hypervisor.Hypervisor
	inj *fault.Injector

	name string // "host<ID>", built once

	eng     *sim.Engine        // this host's shard engine
	checker *invariant.Checker // host-local audits (hv + resident kernels)

	inbox   inbox  // routed requests in transit to this host
	deliver func() // lands the inbox's oldest request; see route

	// occSeries caches the watchdog occupancy series of each (VM, pCPU)
	// cell at VMID*pcpus + pCPUID; hypervisor VM IDs are append-only.
	occSeries []*watch.Series

	committed int // placed vCPUs (bookkeeping, audited)
	sensitive int // resident sensitive VMs

	// Windowed interference signal, refreshed by the monitor from the
	// hypervisor's cumulative runstate accounting.
	prevBusy, prevSteal, prevWait float64
	prevLHP                       float64
	busyFrac, stealFrac, waitFrac float64
	lhpRate                       float64
}

// Name returns the host identifier, e.g. "host1".
func (h *Host) Name() string { return h.name }

// Committed returns the number of vCPUs placed on the host.
func (h *Host) Committed() int { return h.committed }

// Engine returns the host's shard engine.
func (h *Host) Engine() *sim.Engine { return h.eng }

// Interference is the host's contention score: heavily weighted steal
// and preempt-wait fractions plus the lock-holder-preemption rate.
// Unlike Score it ignores plain busyness — a host full of
// well-isolated work is busy but not interfering.
func (h *Host) Interference() float64 {
	return 4*(h.stealFrac+h.waitFrac) + h.lhpRate/100
}

// Score is the host's placement score: measured busy fraction plus the
// interference terms.
func (h *Host) Score() float64 {
	return h.busyFrac + h.Interference()
}

// VMHandle is the cluster's view of one logical VM across its boot
// generations (a migration retires the current instance and boots a
// successor on the destination host).
type VMHandle struct {
	Spec VMSpec
	idx  int

	admitted  bool
	migrating bool
	host      *Host
	gen       int
	name      string // instName, cached per generation
	lastMove  sim.Time

	vm   *hypervisor.VM
	kern *guest.Kernel
	inst *workload.Instance

	// Server-only routing state. routed counts dispatches and
	// servedSeen completions, the latter bumped by the serving host as
	// each request finishes. The control shard runs before the hosts in
	// every window, so the router's outstanding estimate
	// routed-servedSeen lags by one window — the slightly stale view a
	// real cluster front door has. delivered counts requests that
	// reached a replica gate.
	gate       *workload.RemoteGate
	gates      []*workload.RemoteGate // every generation, for conservation audits
	carried    []workload.Request     // queued requests in transit during a switchover
	routed     int64
	servedSeen int64
	delivered  int64

	// Autoscaler lifecycle: a draining replica is cordoned while its
	// outstanding work finishes; a retired one has sealed its gate and
	// released its capacity (see autoscale.go).
	draining bool
	retired  bool

	// Windowed steal signal (migration victim detection), refreshed by
	// the monitor barrier task.
	prevSteal float64
	stealFrac float64

	// Watchdog pain feed (feedWatcher): the SeriesPain series of the
	// host it was resolved for, and the last cumulative push.
	painSeries *watch.Series
	painHost   *Host
	lastPain   sim.Time
}

// Migrations returns how many times the VM has moved hosts.
func (hd *VMHandle) Migrations() int { return hd.gen }

// newHandle returns the handle of spec at generation 0.
func newHandle(spec VMSpec, idx int) *VMHandle {
	return &VMHandle{Spec: spec, idx: idx, name: spec.Name}
}

// instName returns the per-generation instance name, e.g. "srv2#1"
// after one migration. It is cached per generation, so the router's
// per-request decision records share one string.
func (hd *VMHandle) instName() string { return hd.name }

// nextGen moves hd to its next generation (a migration's successor
// instance) and renames it. Barrier context.
func (hd *VMHandle) nextGen() {
	hd.gen++
	hd.name = hd.Spec.Name + "#" + strconv.Itoa(hd.gen)
}

// Cluster ties the rack, the placement policy, the router, and the
// migration monitor together on one sharded deterministic engine.
type Cluster struct {
	cfg     Config
	sh      *sim.ShardedEngine
	ctl     *sim.Engine // shard 0: the control plane (arrivals + routing)
	hosts   []*Host
	vms     []*VMHandle
	servers []*VMHandle
	checker *invariant.Checker // cluster-level invariants, audited at barriers
	watcher *watch.Watcher

	auditVCPUs []int // AuditInvariants' per-host vCPU sums, reused per pass

	// Decision audit log (nil when Config.Decisions is nil). decCtl is
	// the control shard's ring, where every cluster-level choice lands.
	decLog *decision.Log
	decCtl *decision.Ring

	arrivalRNG  *sim.RNG
	blackoutRNG *sim.RNG
	arrivalFn   func() // nextArrival, bound once: it re-arms per request

	stats         *workload.ServerStats
	generated     int64
	buffered      []workload.Request // arrivals held back while no replica is live
	sloViolations int64
	migrations    int64
	lastRefresh   sim.Time
	blackouts     int64

	// Zone layer (see zone.go). zones is never empty: a nil Topology
	// yields one flat zone.
	topo             *topology.Topology
	zones            []*zoneState
	cordonedZones    int
	zoneOutageCount  int64
	failoverRouted   int64 // requests routed while some zone was dark
	zoneRouteScratch []topology.ZoneRoute
	zoneStatScratch  []topology.ZoneStats
	rampIdx          int

	// Autoscaler state (see autoscale.go).
	asLastUp     sim.Time
	asQuietSince sim.Time
	asSeq        int
	asCreated    []*VMHandle
	scaleUps     int64
	scaleDowns   int64

	// Phase SLO accounting (len(SLOPhases)+1 buckets), filled by served.
	phaseServed []int64
	phaseViols  []int64

	// bounced holds requests that hit a sealed gate this window, in
	// host order then post order; the barrier drain re-routes them.
	bounced []bounceRec

	// pendingViols defers every invariant violation, host or cluster,
	// to the next barrier drain, in window order: a violation may be
	// recorded mid-window, where the watcher's incident capture — which
	// reads every host — must not run.
	pendingViols []invariant.Violation
}

// ctlShard is the control plane's shard index; host i runs on shard
// i+1.
const ctlShard = 0

// New builds a cluster but does not run it.
func New(cfg Config) (*Cluster, error) {
	if cfg.Hosts <= 0 || cfg.PCPUsPerHost <= 0 {
		return nil, fmt.Errorf("cluster: need at least one host and one pCPU (got %d×%d)", cfg.Hosts, cfg.PCPUsPerHost)
	}
	if cfg.Policy < FirstFit || cfg.Policy > InterferenceAware {
		return nil, fmt.Errorf("cluster: unknown placement policy %v", cfg.Policy)
	}
	if !(cfg.Overcommit > 0) {
		return nil, fmt.Errorf("cluster: overcommit %v not positive", cfg.Overcommit)
	}
	if len(cfg.VMs) == 0 {
		return nil, fmt.Errorf("cluster: no VMs to place")
	}
	for i, s := range cfg.VMs {
		if s.Kind != KindServer && s.Kind != KindAntagonist {
			return nil, fmt.Errorf("cluster: VM %q has no kind", s.Name)
		}
		if s.VCPUs <= 0 {
			return nil, fmt.Errorf("cluster: VM %q has %d vCPUs", s.Name, s.VCPUs)
		}
		// The watchdog, attribution and the decision log key VMs by
		// name. A pairwise scan: rigs hold tens of VMs, and set-up
		// allocates nothing for it.
		for _, prev := range cfg.VMs[:i] {
			if prev.Name == s.Name {
				return nil, fmt.Errorf("cluster: two VMs named %q", s.Name)
			}
		}
	}
	for i, st := range cfg.Ramp {
		if st.Arrival <= 0 {
			return nil, fmt.Errorf("cluster: ramp stage %d arrival %v not positive", i, st.Arrival)
		}
		if i > 0 && st.At <= cfg.Ramp[i-1].At {
			return nil, fmt.Errorf("cluster: ramp stage %d at %v does not advance", i, st.At)
		}
	}
	if cfg.Autoscale != nil {
		if cfg.Watch == nil || len(cfg.Watch.Rules) == 0 {
			return nil, fmt.Errorf("cluster: autoscaler needs the SLO watchdog with at least one burn-rate rule")
		}
		if cfg.Autoscale.Template.Kind != KindServer || cfg.Autoscale.Template.VCPUs <= 0 {
			return nil, fmt.Errorf("cluster: autoscaler template must be a server spec with vCPUs")
		}
		as := cfg.Autoscale
		if as.Max < 1 || as.Step < 1 {
			return nil, fmt.Errorf("cluster: autoscaler max %d / step %d < 1", as.Max, as.Step)
		}
		if as.Interval <= 0 || as.Cooldown <= 0 || as.DownAfter <= 0 {
			return nil, fmt.Errorf("cluster: autoscaler interval %v / cooldown %v / down-after %v not positive",
				as.Interval, as.Cooldown, as.DownAfter)
		}
	}

	sh := sim.NewSharded(cfg.Hosts+1, lookahead)

	c := &Cluster{
		cfg:         cfg,
		sh:          sh,
		ctl:         sh.Shard(ctlShard),
		arrivalRNG:  sim.NewRNG(cfg.Seed ^ 0xc1a57e12),
		blackoutRNG: sim.NewRNG(cfg.Seed ^ 0xb1ac0a7e),
		stats:       &workload.ServerStats{Latency: &obs.Histogram{}},
	}

	if cfg.Watch != nil {
		c.watcher = watch.New(*cfg.Watch)
		c.sh.EveryBarrier(watch.Interval, "watch-epoch", func() {
			c.watcher.RunEpoch(c.sh.Now())
		})
	}

	if cfg.Decisions != nil {
		c.decLog = decision.NewLog(cfg.Hosts+1, *cfg.Decisions)
		c.decLog.Label(ctlShard, "ctl")
		c.decCtl = c.decLog.Ring(ctlShard)
	}

	for i := 0; i < cfg.Hosts; i++ {
		var inj *fault.Injector
		if !cfg.Faults.Zero() {
			inj = fault.NewInjector(cfg.Faults, cfg.Seed^0xfa017eed^uint64(i+1)*0x9e3779b97f4a7c15)
		}
		hc := hypervisor.DefaultConfig(cfg.PCPUsPerHost)
		hc.Strategy = cfg.Strategy
		hc.LoadBalance = true
		hc.Faults = inj
		hc.Seed = cfg.Seed ^ uint64(i+1)*0x9e3779b97f4a7c15
		name := "host" + strconv.Itoa(i)
		c.decLog.Label(i+1, name)
		hc.Decisions = c.decLog.Ring(i + 1)
		if cfg.TuneHV != nil {
			cfg.TuneHV(&hc)
		}
		if c.watcher != nil {
			// The flight recorder sizes each host's event ring to the
			// tail a bundle shows, unless TuneHV supplied a log.
			hc.Trace = c.watcher.Recorder().HostLog(name, hc.Trace)
		}
		eng := sh.Shard(i + 1)
		host := &Host{
			ID:   i,
			HV:   hypervisor.New(eng, hc),
			inj:  inj,
			name: name,
			eng:  eng,
		}
		host.deliver = func() { c.deliverNext(host) }
		c.hosts = append(c.hosts, host)
		if c.watcher != nil {
			c.wireWatchHost(host)
		}
	}
	c.auditVCPUs = make([]int, len(c.hosts))

	if err := c.buildZones(); err != nil {
		return nil, err
	}
	for i, o := range cfg.ZoneOutages {
		if o.Zone < 0 || o.Zone >= len(c.zones) {
			return nil, fmt.Errorf("cluster: zone outage %d targets zone %d of %d", i, o.Zone, len(c.zones))
		}
		if o.At < 0 || o.For <= 0 {
			return nil, fmt.Errorf("cluster: zone outage %d needs at >= 0 and for > 0", i)
		}
	}
	if len(cfg.SLOPhases) > 0 {
		c.phaseServed = make([]int64, len(cfg.SLOPhases)+1)
		c.phaseViols = make([]int64, len(cfg.SLOPhases)+1)
	}

	if cfg.Invariants {
		// Cluster-level invariants audit at barriers (they read every
		// shard); each host additionally runs its own checker over its
		// hypervisor and resident kernels, on its own engine.
		c.checker = invariant.New(auditInterval)
		c.checker.Observe(c)
		c.checker.OnViolation = func(v invariant.Violation) {
			c.pendingViols = append(c.pendingViols, v)
		}
		c.ctl.OnViolation = func(name, detail string) {
			c.checker.Record(c.ctl.Now(), name, detail)
		}
		c.sh.OnViolation = func(name, detail string) {
			c.checker.Record(c.sh.Now(), name, detail)
		}
		c.sh.EveryBarrier(auditInterval, "invariant-audit", func() {
			c.checker.AuditAt(c.sh.Now())
		})
		for _, h := range c.hosts {
			h.checker = invariant.New(auditInterval)
			h.checker.Observe(h.HV)
			h.checker.Attach(h.eng)
			h.checker.OnViolation = c.checker.OnViolation
		}
	}

	if c.watcher != nil {
		c.watcher.AddFeed(c.feedWatcher)
		if cfg.Spans != nil {
			cfg.Spans.OnFinish = c.watcher.Recorder().ObserveSpan
		}
	}

	// The barrier drain: bounces and violations are handled before any
	// barrier task at the same instant runs.
	c.sh.OnBarrier(c.drain)

	// VM arrivals, in a stable order at equal times. Admission reads
	// and mutates the whole rack (placement), so it is a barrier task.
	handles := make([]*VMHandle, len(cfg.VMs))
	for i, spec := range cfg.VMs {
		if spec.Weight <= 0 {
			spec.Weight = 256
		}
		if spec.Threads <= 0 {
			spec.Threads = spec.VCPUs
		}
		handles[i] = newHandle(spec, i)
	}
	sort.SliceStable(handles, func(a, b int) bool { return handles[a].Spec.ArriveAt < handles[b].Spec.ArriveAt })
	for _, hd := range handles {
		c.vms = append(c.vms, hd)
		if hd.Spec.Kind == KindServer {
			c.servers = append(c.servers, hd)
		}
		c.sh.AtBarrier(hd.Spec.ArriveAt, "vm-arrive-"+hd.Spec.Name, func() { c.admit(hd) })
	}

	// Cluster-wide request stream (open loop, exponential) on the
	// control shard.
	if cfg.Arrival > 0 && cfg.Duration > 0 {
		c.arrivalFn = c.nextArrival
		c.ctl.After(c.arrivalRNG.Exp(c.arrivalMean(0)), c.arrivalFn)
	}

	// Interference monitor (signal refresh + migration trigger): reads
	// every host's hypervisor accounting, so it runs at barriers.
	c.sh.EveryBarrier(monitorInterval, "cluster-monitor", c.monitor)

	// Cluster-level host blackouts.
	if cfg.HostBlackoutEvery > 0 && cfg.HostBlackoutFor > 0 {
		c.sh.EveryBarrier(cfg.HostBlackoutEvery, "cluster-blackout", c.hostBlackout)
	}

	// Zone outages and the autoscaler register last, so configurations
	// without them keep the exact barrier-task sequence (and therefore
	// byte-identical output) of the pre-zone cluster.
	for _, o := range cfg.ZoneOutages {
		z := c.zones[o.Zone]
		c.sh.AtBarrier(o.At, "zone-outage-"+z.name, func() { c.startZoneOutage(z, o.For) })
		c.sh.AtBarrier(o.At+o.For, "zone-restore-"+z.name, func() { c.endZoneOutage(z) })
	}
	if cfg.Autoscale != nil {
		// Registered after the watch epoch task: at a shared instant the
		// epoch's evaluation runs first, so the tick reads fresh state.
		c.sh.EveryBarrier(cfg.Autoscale.Interval, "autoscale", c.autoscaleTick)
		// Any rising-edge alert resets the quiet clock even if the rule
		// clears again between ticks — a brief page still delays
		// scale-down by a full DownAfter.
		c.watcher.AddAlertHook(func(watch.Alert, []watch.RankedAggressor) { c.asQuietSince = c.sh.Now() })
	}

	return c, nil
}

// served folds one completed request into the control plane: the
// router's view, the latency histogram, the SLO and phase counts and
// the watchdog's SLO signal. It runs on the serving host's shard as
// the request finishes.
func (c *Cluster) served(hd *VMHandle, at, lat sim.Time) {
	hd.servedSeen++
	c.stats.Requests++
	c.stats.Latency.Add(lat)
	violated := c.cfg.SLO > 0 && lat > c.cfg.SLO
	if violated {
		c.sloViolations++
	}
	if c.phaseServed != nil {
		pi := 0
		for pi < len(c.cfg.SLOPhases) && at >= c.cfg.SLOPhases[pi] {
			pi++
		}
		c.phaseServed[pi]++
		if violated {
			c.phaseViols[pi]++
		}
	}
	c.watcher.ObserveRequest(at, violated)
}

// drain runs at barriers, before due barrier tasks. Hosts write
// their facts (served, delivered, occupancy) straight into control-
// plane state: each window runs the control shard first and then the
// hosts in index order, so a fact written in window k is first read by
// the router in window k+1 or by a barrier task, as if folded here, and
// the histogram and watcher see host order, then completion order.
// Two kinds of fact wait for the barrier. A bounce re-submits onto a
// gate that may live on a higher-indexed host, which must not see it
// mid-window. A violation may capture an incident, which reads every
// host; the violations go to the watcher in window order.
//
// The coordinator runs drain only at barriers after a window in which
// some shard had an event due, or after a barrier phase that did work
// (sim.ShardedEngine.OnBarrier). That is enough: a bounce comes from a
// host event, and a violation from a host or control-plane event or
// from the audit task, so every fact here was added in the window just
// ended or by the barrier phase before it. Decision records follow the
// same rule, so the merge sees what it would at every barrier. drain
// reports work when it re-submitted a request, which schedules on a
// host, or handed the watcher a violation.
func (c *Cluster) drain(now sim.Time) bool {
	worked := len(c.bounced) > 0 || len(c.pendingViols) > 0
	for _, b := range c.bounced {
		b.hd.delivered++
		if b.hd.gate != nil && !b.hd.gate.Closed() {
			// The VM already restarted elsewhere; hand the request
			// straight to the live generation.
			b.hd.gate.SubmitReq(b.req)
		} else {
			b.hd.carried = append(b.hd.carried, b.req)
		}
	}
	c.bounced = c.bounced[:0]
	for _, v := range c.pendingViols {
		c.watcher.RecordInvariant(v.At, v.Rule, v.Detail)
	}
	c.pendingViols = c.pendingViols[:0]
	// The decision log merges under the canonical (time, shard) key.
	c.decLog.Merge()
	return worked
}

// Engine exposes the control shard's engine (for tests).
func (c *Cluster) Engine() *sim.Engine { return c.ctl }

// Watcher returns the online SLO watchdog, or nil when Config.Watch
// was not set.
func (c *Cluster) Watcher() *watch.Watcher { return c.watcher }

// Decisions returns the decision audit log, or nil when
// Config.Decisions was not set.
func (c *Cluster) Decisions() *decision.Log { return c.decLog }

// Hosts returns the rack.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// VMs returns the logical VM handles in arrival order.
func (c *Cluster) VMs() []*VMHandle { return c.vms }

// capacity is the committed-vCPU bound per host.
func (c *Cluster) capacity() int {
	return int(c.cfg.Overcommit * float64(c.cfg.PCPUsPerHost))
}

// admit places hd on a host chosen by the policy and boots it there.
// Runs at a barrier: placement reads every host's signal and the boot
// mutates the chosen host's stack.
func (c *Cluster) admit(hd *VMHandle) {
	host := c.place(hd)
	host.committed += hd.Spec.VCPUs
	if hd.Spec.Sensitive {
		host.sensitive++
	}
	hd.host = host
	hd.admitted = true
	hd.lastMove = c.sh.Now() // starts the migration residency clock
	if hd.Spec.Kind == KindServer {
		// Router membership is per zone, in admission order (the JSQ
		// tie-break order). Migration is intra-zone, so membership is
		// set once here.
		z := c.zoneOf(host)
		z.servers = append(z.servers, hd)
	}
	c.registerWatchVM(hd)
	c.boot(hd, host, nil)
	if hd.Spec.Kind == KindServer {
		c.flushBuffered()
	}
}

// boot creates hd's next instance on host. A non-nil snapshot seeds the
// new VM's scheduler state (migration restore path). Barrier context.
func (c *Cluster) boot(hd *VMHandle, host *Host, snap *hypervisor.VMSnapshot) {
	cfg := c.cfg
	saCapable := cfg.Strategy == hypervisor.StrategyIRS
	vm := host.HV.NewVM(hd.instName(), hd.Spec.VCPUs, hd.Spec.Weight, saCapable)
	if snap != nil {
		if err := host.HV.RestoreVM(vm, *snap); err != nil {
			panic("cluster: " + err.Error())
		}
	}

	gc := guest.DefaultConfig()
	gc.IRS = saCapable
	gc.Faults = host.inj
	gc.Seed = cfg.Seed ^ uint64(hd.idx+1)*0x9e37 ^ uint64(hd.gen)*0x517cc1b7
	if cfg.TuneGuest != nil {
		cfg.TuneGuest(&gc)
	}
	kern := guest.NewKernel(host.HV, vm, gc)

	switch hd.Spec.Kind {
	case KindServer:
		spec := workload.ServerSpec{
			Name:    hd.instName(),
			Threads: hd.Spec.Threads,
			Service: cfg.Service,
		}
		// Nil stats: the instance keeps no latency histogram of its own;
		// each completion feeds the cluster-level one through served.
		inst, gate := workload.NewRemoteServer(kern, spec, gc.Seed^0x5e12e, nil)
		gate.OnServed = func(lat sim.Time) { c.served(hd, kern.Now(), lat) }
		hd.inst = inst
		hd.gate = gate
		hd.gates = append(hd.gates, gate)
		inst.Start()
	case KindAntagonist:
		hd.inst = workload.NewHog(kern, hd.Spec.Threads)
		hd.inst.Start()
	}
	hd.vm = vm
	hd.kern = kern
	kern.Start()
	if host.checker != nil {
		host.checker.Observe(kern)
	}
}

// Run drives the simulation to Duration+Drain and collects the result.
func (c *Cluster) Run() (*Result, error) {
	if err := c.sh.Run(c.cfg.Duration + c.cfg.Drain); err != nil {
		return nil, err
	}
	if c.checker != nil {
		c.checker.AuditAt(c.sh.Now())
	}
	c.decLog.Merge() // records minted after the last barrier
	return c.result(), nil
}

// PhaseStats is the SLO accounting for one Config.SLOPhases bucket.
type PhaseStats struct {
	Served, Violations int64
	Rate               float64
}

// Result summarizes one cluster run.
type Result struct {
	Generated, Served, Unserved int64
	P50, P99, P999              sim.Time
	SLOViolations               int64
	SLORate                     float64 // violations / served
	Migrations                  int64
	Blackouts                   int64
	FaultsInjected              int64
	Violations                  int64
	Events                      uint64 // engine events dispatched, all shards

	// Zone / control-plane outputs (zero without a multi-zone topology
	// or the respective feature).
	Zones       int
	ZoneOutages int64
	Failover    int64 // requests routed while some zone was dark
	Replicas    int   // live server replicas at end of run
	ScaleUps    int64
	ScaleDowns  int64
	Alerts      int64
	Phases      []PhaseStats // per-SLOPhases bucket, when configured
}

func (c *Cluster) result() *Result {
	res := &Result{
		Generated:     c.generated,
		Served:        c.stats.Requests,
		Unserved:      c.generated - c.stats.Requests,
		P50:           c.stats.Latency.Percentile(50),
		P99:           c.stats.Latency.Percentile(99),
		P999:          c.stats.Latency.Percentile(99.9),
		SLOViolations: c.sloViolations,
		Migrations:    c.migrations,
		Blackouts:     c.blackouts,
		Events:        c.sh.Fired(),
	}
	if res.Served > 0 {
		res.SLORate = float64(c.sloViolations) / float64(res.Served)
	}
	for _, h := range c.hosts {
		if h.inj != nil {
			res.FaultsInjected += h.inj.Total()
		}
	}
	if c.checker != nil {
		res.Violations = c.checker.Count()
	}
	for _, h := range c.hosts {
		if h.checker != nil {
			res.Violations += h.checker.Count()
		}
	}
	res.Zones = len(c.zones)
	res.ZoneOutages = c.zoneOutageCount
	res.Failover = c.failoverRouted
	res.Replicas = c.liveReplicas()
	res.ScaleUps = c.scaleUps
	res.ScaleDowns = c.scaleDowns
	if c.watcher != nil {
		res.Alerts = int64(len(c.watcher.Alerts()))
	}
	for i := range c.phaseServed {
		p := PhaseStats{Served: c.phaseServed[i], Violations: c.phaseViols[i]}
		if p.Served > 0 {
			p.Rate = float64(p.Violations) / float64(p.Served)
		}
		res.Phases = append(res.Phases, p)
	}
	return res
}

// Zones returns the zone count (1 for a flat topology).
func (c *Cluster) Zones() int { return len(c.zones) }

// Stats exposes the cluster-level server statistics (latency
// histogram), fed as each request is served.
func (c *Cluster) Stats() *workload.ServerStats { return c.stats }

// AuditInvariants implements invariant.Source: no logical VM may be
// lost or double-placed across migrations, committed-vCPU bookkeeping
// must match placements, and every generated request must be accounted
// for (served, queued, in service, carried by a migration, in transit
// to a host, or held by the router). Runs at barriers, where every
// shard is parked.
func (c *Cluster) AuditInvariants(report func(rule, detail string)) {
	perHost := c.auditVCPUs
	clear(perHost)
	for _, hd := range c.vms {
		if hd.admitted && !hd.retired {
			perHost[hd.host.ID] += hd.Spec.VCPUs
		}
	}
	for _, h := range c.hosts {
		if perHost[h.ID] != h.committed {
			report("cluster-committed", fmt.Sprintf("%s commits %d vCPUs, placements sum to %d",
				h.Name(), h.committed, perHost[h.ID]))
		}
	}

	var routed int64
	for _, hd := range c.servers {
		if !hd.admitted {
			continue
		}
		open := 0
		var served, inflight int64
		for _, g := range hd.gates {
			if !g.Closed() {
				open++
			}
			served += g.Served()
			inflight += g.InFlight()
		}
		if hd.retired {
			// A retired replica sealed its gate at retirement; anything
			// open means the drain-then-retire protocol broke.
			if open != 0 {
				report("cluster-single-instance", fmt.Sprintf("%s retired with %d open gates", hd.Spec.Name, open))
			}
		} else if hd.migrating {
			if open > 1 {
				report("cluster-single-instance", fmt.Sprintf("%s has %d open gates mid-migration", hd.Spec.Name, open))
			}
		} else if open != 1 {
			report("cluster-single-instance", fmt.Sprintf("%s has %d open gates", hd.Spec.Name, open))
		}
		queued := int64(0)
		if hd.gate != nil {
			queued = int64(hd.gate.QueueLen())
		}
		total := served + inflight + queued + int64(len(hd.carried))
		if total != hd.delivered {
			report("cluster-request-conservation", fmt.Sprintf(
				"%s delivered %d != served %d + in-flight %d + queued %d + carried %d",
				hd.Spec.Name, hd.delivered, served, inflight, queued, len(hd.carried)))
		}
		if hd.delivered > hd.routed {
			report("cluster-request-conservation", fmt.Sprintf(
				"%s delivered %d > routed %d", hd.Spec.Name, hd.delivered, hd.routed))
		}
		routed += hd.routed
	}
	if c.generated != routed+int64(len(c.buffered)) {
		report("cluster-request-conservation", fmt.Sprintf(
			"generated %d != routed %d + held back %d", c.generated, routed, len(c.buffered)))
	}
}
