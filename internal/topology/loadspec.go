package topology

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/kv"
	"repro/internal/sim"
	"repro/internal/watch"
)

// LoadSpec is the declarative cluster-load specification driving the
// scale experiment and cmd/irsload — this repo's clusterloader2: one
// text blob describes the rack shape, the scheduling stack, the
// request load curve (flat, staged ramp, or diurnal), the tenant mix
// and any named VMs after it, injected faults and zone outages, the
// burn-rate alert rule, and the replica autoscaler. Every named cluster
// rig in the repo is one. Specs parse from strings (ParseLoadSpec),
// round-trip through String, and validate strictly, so a spec can live
// in a Makefile line, a CI job, or a file without drifting from what
// the simulator actually runs.
//
// Syntax: sections separated by ';' or newlines, each "name:body".
// '#' starts a line comment. Every body but ramp's is a field list in
// the kv grammar (package kv), the one fault plans, attacker specs and
// watch rules use; the alert section is a watch.Rule with its name as
// a field, the faults section a fault.Plan plus host blackouts.
// Example:
//
//	topo:zones=2,hosts=8,pcpus=4
//	sched:policy=ia,strategy=irs,migrate=on
//	load:arrival=1ms,service=2ms,slo=25ms,duration=12s,drain=2s
//	ramp:1500us@0,1ms@2s,800us@4s
//	tenants:servers=2,server-vcpus=2,ants=2,ant-vcpus=2,spacing=500ms
//	vm:name=bully,kind=ant,vcpus=4,weight=2048,at=4s
//	faults:drop-sa=0.1,host-blackout-every=6s,host-blackout-for=60ms
//	outage:zone=1,at=6s,for=1200ms
//	alert:budget=0.02,fast=500ms,slow=2s,burn=3
//	autoscale:max=8,step=2,cooldown=1500ms,down-after=2500ms
type LoadSpec struct {
	// Zones × HostsPerZone hosts of PCPUs pCPUs each (topo section).
	Zones, HostsPerZone, PCPUs int

	// Policy is the placement policy ("first-fit", "least-loaded",
	// "ia"); Strategy the per-host hypervisor strategy ("vanilla",
	// "ple", "relaxed-co", "irs"); Migrate enables hot-spot live
	// migration (sched section).
	Policy, Strategy string
	Overcommit       float64
	Migrate          bool

	// Arrival is the mean request inter-arrival time (the flat rate,
	// and the base rate the diurnal curve modulates); Service the mean
	// service time; SLO the latency bound; Duration the stream length;
	// Drain the extra settle time (load section).
	Arrival, Service, SLO sim.Time
	Duration, Drain       sim.Time

	// Ramp is an explicit piecewise arrival schedule (ramp section):
	// stage k's mean inter-arrival applies from its At until the next
	// stage. Mutually exclusive with Diurnal.
	Ramp []Stage
	// Diurnal modulates the base Arrival rate sinusoidally (diurnal
	// section) — the compressed millions-of-users day/night curve.
	Diurnal *DiurnalSpec

	// Tenant mix, per zone (tenants section): ServersPerZone server
	// VMs (ServerVCPUs wide, ServerThreads workers, 0 = vCPU count)
	// and AntsPerZone antagonist VMs (AntVCPUs wide), arriving
	// alternately Spacing apart.
	ServersPerZone, ServerVCPUs, ServerThreads int
	AntsPerZone, AntVCPUs                      int
	Spacing                                    sim.Time

	// VMs are named VMs appended after the tenant mix (vm sections,
	// repeatable). A spec with vm sections may set servers=0.
	VMs []VMSpec
	// Faults injects control-plane faults inside every host and host
	// blackouts across the rack (faults section). A spec with faults
	// runs the hardened host profile.
	Faults FaultSpec

	// Outages are injected zone failures (outage sections, repeatable):
	// at At the zone is cordoned and its hosts go dark for For.
	Outages []OutageSpec

	// Alert is the burn-rate rule the SLO watchdog evaluates (alert
	// section, named "slo-burn" unless it sets name); required
	// when Autoscale is set.
	Alert *watch.Rule
	// Autoscale bounds the replica autoscaler (autoscale section).
	Autoscale *AutoscaleSpec
}

// Stage is one step of a piecewise arrival schedule: mean inter-arrival
// Arrival from time At on.
type Stage struct {
	Arrival sim.Time
	At      sim.Time
}

// DiurnalSpec modulates the arrival rate as 1 + Swing·sin(2πt/Period),
// discretized into Steps flat stages per period.
type DiurnalSpec struct {
	Period sim.Time
	Swing  float64
	Steps  int
}

// VMSpec is one named VM: Kind "server" (latency-sensitive, fed by
// the router) or "ant" (a CPU-bound antagonist), VCPUs wide at credit
// weight Weight (0 = the scheduler default), submitted at At. Its
// declared pressure and QoS class follow from the kind, as they do for
// the tenant mix.
type VMSpec struct {
	Name, Kind    string
	VCPUs, Weight int
	At            sim.Time
}

// FaultSpec is the faults section: the fault plan every host's
// injector runs, plus a rack-level blackout that pauses one random
// host for HostBlackoutFor every HostBlackoutEvery.
type FaultSpec struct {
	Plan                               fault.Plan
	HostBlackoutEvery, HostBlackoutFor sim.Time
}

// Zero reports whether the spec injects no faults at all.
func (f FaultSpec) Zero() bool { return f == FaultSpec{} }

// OutageSpec is one injected zone failure.
type OutageSpec struct {
	Zone    int
	At, For sim.Time
}

// AutoscaleSpec bounds the replica autoscaler. Min 0 means "the
// initial server count"; Max must fit at least Min.
type AutoscaleSpec struct {
	Min, Max, Step      int
	Cooldown, DownAfter sim.Time
	Interval            sim.Time
}

// Default knobs applied by withDefaults for omitted fields.
const (
	DefaultSpacing  = 500 * sim.Millisecond
	DefaultDuration = 10 * sim.Second
	DefaultDrain    = 2 * sim.Second
)

// defaultAlertName names an alert section that sets no name.
const defaultAlertName = "slo-burn"

// withDefaults fills unset fields with the documented defaults.
func (s LoadSpec) withDefaults() LoadSpec {
	if s.Zones == 0 {
		s.Zones = 1
	}
	if s.HostsPerZone == 0 {
		s.HostsPerZone = 4
	}
	if s.PCPUs == 0 {
		s.PCPUs = 4
	}
	if s.Policy == "" {
		s.Policy = "ia"
	}
	if s.Strategy == "" {
		s.Strategy = "irs"
	}
	if s.Overcommit == 0 {
		s.Overcommit = 1.5
	}
	if s.Arrival == 0 {
		s.Arrival = 1250 * sim.Microsecond
	}
	if s.Service == 0 {
		s.Service = 2 * sim.Millisecond
	}
	if s.SLO == 0 {
		s.SLO = 25 * sim.Millisecond
	}
	if s.Duration == 0 {
		s.Duration = DefaultDuration
	}
	if s.Drain == 0 {
		s.Drain = DefaultDrain
	}
	if s.ServersPerZone == 0 && len(s.VMs) == 0 {
		s.ServersPerZone = 2
	}
	if s.ServerVCPUs == 0 {
		s.ServerVCPUs = 2
	}
	if s.AntVCPUs == 0 {
		s.AntVCPUs = 2
	}
	if s.Spacing == 0 {
		s.Spacing = DefaultSpacing
	}
	if d := s.Diurnal; d != nil {
		cp := *d
		if cp.Steps == 0 {
			cp.Steps = 8
		}
		s.Diurnal = &cp
	}
	if a := s.Alert; a != nil {
		cp := *a
		if cp.Budget == 0 {
			cp.Budget = 0.02
		}
		if cp.Fast == 0 {
			cp.Fast = 500 * sim.Millisecond
		}
		if cp.Slow == 0 {
			cp.Slow = 2 * sim.Second
		}
		if cp.Burn == 0 {
			cp.Burn = 3
		}
		s.Alert = &cp
	}
	if as := s.Autoscale; as != nil {
		cp := *as
		if cp.Step == 0 {
			cp.Step = 1
		}
		if cp.Cooldown == 0 {
			cp.Cooldown = 2 * sim.Second
		}
		if cp.DownAfter == 0 {
			cp.DownAfter = 3 * sim.Second
		}
		if cp.Interval == 0 {
			cp.Interval = 250 * sim.Millisecond
		}
		if cp.Max == 0 {
			cp.Max = s.Servers() + cp.Step
		}
		s.Autoscale = &cp
	}
	return s
}

// policies, strategies and VM kinds a spec may name (validated here so
// a bad spec fails at parse time, not deep inside cluster construction).
var (
	specPolicies   = []string{"first-fit", "least-loaded", "ia"}
	specStrategies = []string{"vanilla", "ple", "relaxed-co", "irs"}
	specKinds      = []string{"server", "ant"}
)

// Servers counts the server VMs the spec starts with: the tenant mix's
// plus the named ones.
func (s LoadSpec) Servers() int {
	n := s.ServersPerZone * s.Zones
	for _, v := range s.VMs {
		if v.Kind == "server" {
			n++
		}
	}
	return n
}

// AutoscaleName names the autoscaler's replica template; its replicas
// are AutoscaleName-as1, -as2, ... A vm: section may not use the
// prefix, since the spec cannot see which replicas will exist.
const AutoscaleName = "srv-auto"

// inMix reports whether the tenant mix already names a VM name: it
// calls its VMs srv0.. and ant0.. in arrival order.
func (s LoadSpec) inMix(name string) bool {
	for _, m := range []struct {
		prefix string
		n      int
	}{{"srv", s.ServersPerZone * s.Zones}, {"ant", s.AntsPerZone * s.Zones}} {
		if rest, ok := strings.CutPrefix(name, m.prefix); ok {
			if i, err := strconv.Atoi(rest); err == nil && i >= 0 && i < m.n && strconv.Itoa(i) == rest {
				return true
			}
		}
	}
	return false
}

// Validate rejects incoherent specs: impossible shapes, out-of-range
// knobs, VMs whose names collide, outages aimed at zones that do not
// exist, ramps that go backwards, or an autoscaler with no alert rule
// to react to.
func (s LoadSpec) Validate() error {
	if s.Zones <= 0 || s.HostsPerZone <= 0 || s.PCPUs <= 0 {
		return fmt.Errorf("topology: spec needs positive zones×hosts×pcpus (got %d×%d×%d)", s.Zones, s.HostsPerZone, s.PCPUs)
	}
	if !slices.Contains(specPolicies, s.Policy) {
		return fmt.Errorf("topology: spec policy %q not in %v", s.Policy, specPolicies)
	}
	if !slices.Contains(specStrategies, s.Strategy) {
		return fmt.Errorf("topology: spec strategy %q not in %v", s.Strategy, specStrategies)
	}
	if !(s.Overcommit > 0) || math.IsInf(s.Overcommit, 0) {
		return fmt.Errorf("topology: spec overcommit %v not a positive finite number", s.Overcommit)
	}
	if s.Arrival <= 0 || s.Service <= 0 || s.SLO <= 0 || s.Duration <= 0 || s.Drain < 0 {
		return fmt.Errorf("topology: spec load durations must be positive (arrival=%v service=%v slo=%v duration=%v drain=%v)",
			s.Arrival, s.Service, s.SLO, s.Duration, s.Drain)
	}
	if len(s.Ramp) > 0 && s.Diurnal != nil {
		return fmt.Errorf("topology: spec has both ramp and diurnal sections")
	}
	for i, st := range s.Ramp {
		if st.Arrival <= 0 {
			return fmt.Errorf("topology: ramp stage %d arrival %v not positive", i, st.Arrival)
		}
		if st.At < 0 {
			return fmt.Errorf("topology: ramp stage %d at %v negative", i, st.At)
		}
		if i > 0 && st.At <= s.Ramp[i-1].At {
			return fmt.Errorf("topology: ramp stage %d at %v does not advance past %v", i, st.At, s.Ramp[i-1].At)
		}
	}
	if d := s.Diurnal; d != nil {
		if d.Period <= 0 {
			return fmt.Errorf("topology: diurnal period %v not positive", d.Period)
		}
		if !(d.Swing >= 0 && d.Swing < 1) {
			return fmt.Errorf("topology: diurnal swing %v outside [0, 1)", d.Swing)
		}
		if d.Steps < 2 {
			return fmt.Errorf("topology: diurnal steps %d < 2", d.Steps)
		}
	}
	if s.ServersPerZone < 0 || s.AntsPerZone < 0 || s.ServerVCPUs <= 0 || s.AntVCPUs <= 0 || s.ServerThreads < 0 {
		return fmt.Errorf("topology: bad tenant mix (servers=%d×%d ants=%d×%d threads=%d)",
			s.ServersPerZone, s.ServerVCPUs, s.AntsPerZone, s.AntVCPUs, s.ServerThreads)
	}
	if s.Spacing < 0 {
		return fmt.Errorf("topology: spacing %v negative", s.Spacing)
	}
	names := map[string]bool{}
	for i, v := range s.VMs {
		switch {
		case v.Name == "":
			return fmt.Errorf("topology: vm %d needs a name", i)
		case names[v.Name] || s.inMix(v.Name):
			return fmt.Errorf("topology: vm %d name %q already taken", i, v.Name)
		case strings.HasPrefix(v.Name, AutoscaleName):
			return fmt.Errorf("topology: vm %d name %q has the autoscaler's reserved prefix %q", i, v.Name, AutoscaleName)
		case !slices.Contains(specKinds, v.Kind):
			return fmt.Errorf("topology: vm %s kind %q not in %v", v.Name, v.Kind, specKinds)
		case v.VCPUs <= 0 || v.Weight < 0 || v.At < 0:
			return fmt.Errorf("topology: vm %s needs vcpus > 0, weight >= 0 and at >= 0 (got %d, %d, %v)",
				v.Name, v.VCPUs, v.Weight, v.At)
		}
		names[v.Name] = true
	}
	if s.Servers() < 1 {
		return fmt.Errorf("topology: spec places no server VMs")
	}
	if err := s.Faults.Plan.Validate(); err != nil {
		return fmt.Errorf("topology: faults: %w", err)
	}
	if f := s.Faults; f.HostBlackoutEvery < 0 || f.HostBlackoutFor < 0 || (f.HostBlackoutEvery > 0) != (f.HostBlackoutFor > 0) {
		return fmt.Errorf("topology: faults: host-blackout-every=%v and host-blackout-for=%v must both be positive or both zero",
			f.HostBlackoutEvery, f.HostBlackoutFor)
	}
	for i, o := range s.Outages {
		if o.Zone < 0 || o.Zone >= s.Zones {
			return fmt.Errorf("topology: outage %d zone %d outside [0,%d)", i, o.Zone, s.Zones)
		}
		if o.At < 0 || o.For <= 0 {
			return fmt.Errorf("topology: outage %d needs at >= 0 and for > 0 (got at=%v for=%v)", i, o.At, o.For)
		}
	}
	if a := s.Alert; a != nil {
		if a.Name == "" || strings.ContainsAny(a.Name, ":,;= \t\n") {
			return fmt.Errorf("topology: alert name %q empty or has reserved characters", a.Name)
		}
		if !(a.Budget > 0 && a.Budget < 1) {
			return fmt.Errorf("topology: alert budget %v outside (0, 1)", a.Budget)
		}
		if a.Fast <= 0 || a.Slow < a.Fast {
			return fmt.Errorf("topology: alert windows fast=%v slow=%v incoherent", a.Fast, a.Slow)
		}
		if !(a.Burn > 0) || math.IsInf(a.Burn, 0) {
			return fmt.Errorf("topology: alert burn %v not a positive finite number", a.Burn)
		}
	}
	if as := s.Autoscale; as != nil {
		if s.Alert == nil {
			return fmt.Errorf("topology: autoscale section needs an alert section (the burn-rate signal it reacts to)")
		}
		if as.Min < 0 || as.Step <= 0 {
			return fmt.Errorf("topology: autoscale min %d / step %d out of range", as.Min, as.Step)
		}
		base := as.Min
		if base == 0 {
			base = s.Servers()
		}
		if as.Max < base {
			return fmt.Errorf("topology: autoscale max %d below floor %d", as.Max, base)
		}
		if as.Cooldown <= 0 || as.DownAfter <= 0 || as.Interval <= 0 {
			return fmt.Errorf("topology: autoscale timers must be positive (cooldown=%v down-after=%v interval=%v)",
				as.Cooldown, as.DownAfter, as.Interval)
		}
	}
	return nil
}

// Topology materializes the spec's rack shape.
func (s LoadSpec) Topology() *Topology { return Uniform(s.Zones, s.HostsPerZone) }

// Stages returns the effective piecewise arrival schedule: the
// explicit ramp when given, the discretized diurnal curve when
// configured, or nil for a flat stream at Arrival. The diurnal rate at
// stage k is base_rate × (1 + Swing·sin(2πk/Steps)), so the mean
// inter-arrival is Arrival / (1 + Swing·sin(·)); stages repeat for the
// whole Duration.
func (s LoadSpec) Stages() []Stage {
	if len(s.Ramp) > 0 {
		return s.Ramp
	}
	d := s.Diurnal
	if d == nil || d.Swing == 0 {
		return nil
	}
	step := d.Period / sim.Time(d.Steps)
	if step <= 0 {
		step = 1
	}
	var out []Stage
	for at, k := sim.Time(0), 0; at < s.Duration; at, k = at+step, k+1 {
		mod := 1 + d.Swing*math.Sin(2*math.Pi*float64(k%d.Steps)/float64(d.Steps))
		arr := sim.Time(float64(s.Arrival) / mod)
		if arr < 1 {
			arr = 1
		}
		out = append(out, Stage{Arrival: arr, At: at})
	}
	return out
}

// fields returns the key=value table of the fixed section name, bound
// to s, or nil when name is not one.
func (s *LoadSpec) fields(name string) kv.Table {
	switch name {
	case "topo":
		return kv.Table{kv.Bind("zones", &s.Zones), kv.Bind("hosts", &s.HostsPerZone), kv.Bind("pcpus", &s.PCPUs)}
	case "sched":
		return kv.Table{kv.Bind("policy", &s.Policy), kv.Bind("strategy", &s.Strategy),
			kv.Bind("overcommit", &s.Overcommit), kv.Bind("migrate", &s.Migrate)}
	case "load":
		return kv.Table{kv.Bind("arrival", &s.Arrival), kv.Bind("service", &s.Service),
			kv.Bind("slo", &s.SLO), kv.Bind("duration", &s.Duration), kv.Bind("drain", &s.Drain)}
	case "tenants":
		return kv.Table{kv.Bind("servers", &s.ServersPerZone), kv.Bind("server-vcpus", &s.ServerVCPUs),
			kv.Bind("server-threads", &s.ServerThreads), kv.Bind("ants", &s.AntsPerZone),
			kv.Bind("ant-vcpus", &s.AntVCPUs), kv.Bind("spacing", &s.Spacing)}
	case "faults":
		f := &s.Faults
		return append(f.Plan.Fields(), kv.Bind("host-blackout-every", &f.HostBlackoutEvery),
			kv.Bind("host-blackout-for", &f.HostBlackoutFor))
	}
	return nil
}

func (v *VMSpec) fields() kv.Table {
	return kv.Table{kv.Bind("name", &v.Name), kv.Bind("kind", &v.Kind), kv.Bind("vcpus", &v.VCPUs),
		kv.Bind("weight", &v.Weight), kv.Bind("at", &v.At)}
}

// alertFields is the alert section's table: the rule's name, then its
// fields.
func alertFields(r *watch.Rule) kv.Table {
	return append(kv.Table{kv.Bind("name", &r.Name)}, r.Fields()...)
}

func (d *DiurnalSpec) fields() kv.Table {
	return kv.Table{kv.Bind("period", &d.Period), kv.Bind("swing", &d.Swing), kv.Bind("steps", &d.Steps)}
}

func (o *OutageSpec) fields() kv.Table {
	return kv.Table{kv.Bind("zone", &o.Zone), kv.Bind("at", &o.At), kv.Bind("for", &o.For)}
}

func (as *AutoscaleSpec) fields() kv.Table {
	return kv.Table{kv.Bind("min", &as.Min), kv.Bind("max", &as.Max), kv.Bind("step", &as.Step),
		kv.Bind("cooldown", &as.Cooldown), kv.Bind("down-after", &as.DownAfter), kv.Bind("interval", &as.Interval)}
}

// String renders the spec in the exact syntax ParseLoadSpec accepts,
// with every field explicit; ParseLoadSpec(s.String()) round-trips to
// an equal spec.
func (s LoadSpec) String() string {
	s = s.withDefaults()
	secs := []string{"topo:" + s.fields("topo").String(), "sched:" + s.fields("sched").String(),
		"load:" + s.fields("load").String()}
	if len(s.Ramp) > 0 {
		parts := make([]string, len(s.Ramp))
		for i, st := range s.Ramp {
			parts[i] = st.Arrival.Std().String() + "@" + st.At.Std().String()
		}
		secs = append(secs, "ramp:"+strings.Join(parts, ","))
	}
	if d := s.Diurnal; d != nil {
		secs = append(secs, "diurnal:"+d.fields().String())
	}
	secs = append(secs, "tenants:"+s.fields("tenants").String())
	for i := range s.VMs {
		secs = append(secs, "vm:"+s.VMs[i].fields().String())
	}
	if !s.Faults.Zero() {
		secs = append(secs, "faults:"+s.fields("faults").NonZero())
	}
	for i := range s.Outages {
		secs = append(secs, "outage:"+s.Outages[i].fields().String())
	}
	if a := s.Alert; a != nil {
		secs = append(secs, "alert:"+alertFields(a).String())
	}
	if as := s.Autoscale; as != nil {
		secs = append(secs, "autoscale:"+as.fields().String())
	}
	return strings.Join(secs, "; ")
}

// ParseLoadSpec parses a declarative cluster-load spec (see the
// LoadSpec syntax above), applies defaults to omitted fields, and
// validates the result.
func ParseLoadSpec(text string) (LoadSpec, error) {
	// Parsing starts from the defaults so that parseSection can tell an
	// explicit zero from an omitted field.
	s := LoadSpec{}.withDefaults()
	err := kv.Sections(text, []string{"outage", "vm"}, func(name, body string) error {
		return parseSection(&s, name, body)
	})
	if err != nil {
		return LoadSpec{}, fmt.Errorf("topology: %w", err)
	}
	// withDefaults reads servers=0 as omitted unless vm sections name
	// the servers instead.
	if s.ServersPerZone == 0 && len(s.VMs) == 0 {
		return LoadSpec{}, fmt.Errorf("topology: tenants: spec places no server VMs (servers=0)")
	}
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return LoadSpec{}, err
	}
	return s, nil
}

// parseSection parses one section body into s.
func parseSection(s *LoadSpec, name, body string) error {
	var t kv.Table
	switch name {
	case "ramp":
		return parseRamp(s, body)
	case "diurnal":
		s.Diurnal = &DiurnalSpec{}
		t = s.Diurnal.fields()
	case "outage":
		s.Outages = append(s.Outages, OutageSpec{Zone: -1})
		t = s.Outages[len(s.Outages)-1].fields()
	case "vm":
		s.VMs = append(s.VMs, VMSpec{})
		t = s.VMs[len(s.VMs)-1].fields()
	case "alert":
		s.Alert = &watch.Rule{Name: defaultAlertName}
		t = alertFields(s.Alert)
	case "autoscale":
		s.Autoscale = &AutoscaleSpec{}
		t = s.Autoscale.fields()
	default:
		if t = s.fields(name); t == nil {
			return fmt.Errorf("unknown section %q", name)
		}
	}
	if err := t.Parse(body); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	// The topo fields held their defaults before parsing, so a
	// non-positive value here was given explicitly: an error, not a
	// request for the default that withDefaults would silently apply.
	if name == "topo" {
		for _, f := range t {
			if n := *f.Dst().(*int); n <= 0 {
				return fmt.Errorf("topo: %s must be positive, got %d", f.Key, n)
			}
		}
	}
	return nil
}

// parseRamp reads the "arrival@at,arrival@at,..." stage list.
func parseRamp(s *LoadSpec, body string) error {
	for _, part := range strings.Split(body, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return fmt.Errorf("ramp: empty stage")
		}
		arrS, atS, ok := strings.Cut(part, "@")
		if !ok {
			return fmt.Errorf("ramp: stage %q is not arrival@at", part)
		}
		arr, err := time.ParseDuration(strings.TrimSpace(arrS))
		if err != nil {
			return fmt.Errorf("ramp: %q: %v", part, err)
		}
		at, err := time.ParseDuration(strings.TrimSpace(atS))
		if err != nil {
			return fmt.Errorf("ramp: %q: %v", part, err)
		}
		s.Ramp = append(s.Ramp, Stage{Arrival: sim.Duration(arr), At: sim.Duration(at)})
	}
	sort.SliceStable(s.Ramp, func(a, b int) bool { return s.Ramp[a].At < s.Ramp[b].At })
	return nil
}
