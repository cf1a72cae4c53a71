package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/fault"
	"repro/internal/kv"
	"repro/internal/sim"
	"repro/internal/workload"
)

// HostSpec is the declarative description of one single-host rig: the
// host's pCPUs, scheduling strategy and VMs, plus any injected faults
// and the attacker's knobs. Every single-host rig in the repo is one;
// it is the host-side twin of topology.LoadSpec. Specs parse from
// text (ParseHostSpec), round-trip through String, validate strictly,
// and compile to a runnable Scenario with Scenario(seed). What a rig's
// text does not describe — metrics, the sampler, the invariant
// checker, TuneHV/TuneGuest hooks — stays a Go field of the compiled
// Scenario.
//
// Syntax: sections separated by ';' or newlines, each "name:body", '#'
// starting a line comment (kv.Sections). Every body but attack's is a
// field list in the kv grammar:
//
//	host:pcpus=4,strategy=irs,unpinned=off,horizon=15m
//	vm:name=fg,kind=bench,bench=streamcluster,mode=spin,vcpus=4,irs=on
//	vm:name=bg,kind=hog,vcpus=1
//	vm:name=srv,kind=server,vcpus=4,threads=4,service=800us,duration=2s
//	vm:name=att,kind=attacker,vcpus=1
//	faults:drop-sa=0.1,dup-sa=0.05
//	attack:tick-evade,margin=500us
//
// host is required and vm repeats. strategy defaults to vanilla and
// horizon 0 to Scenario's 600 s. A vm's kind is bench (a catalog
// benchmark run once), background (one looping with a thread per
// vCPU), hog (one CPU hog per vCPU), server (a workload.ServerSpec,
// whose fields the section takes too) or attacker (running the attack
// section, a workload.ParseAttack spec). mode is "" for the
// benchmark's native wait policy, spin or block. Each VM's vCPUs are
// pinned one per pCPU from pCPU 0 unless the host is unpinned. irs
// marks the guest SA-capable.
type HostSpec struct {
	PCPUs    int
	Strategy string
	Unpinned bool
	Horizon  sim.Time
	VMs      []HostVM
	Faults   fault.Plan
	Attack   workload.AttackSpec
}

// HostVM is one vm section of a HostSpec.
type HostVM struct {
	Name, Kind, Bench, Mode string
	VCPUs                   int
	IRS                     bool
	// Server holds a server VM's workload; its Name is the VM's.
	Server workload.ServerSpec
}

// hostKinds are the vm kinds a spec may name; syncModes the mode words.
var (
	hostKinds = []string{"bench", "background", "hog", "server", "attacker"}
	syncModes = map[string]workload.SyncMode{"": 0, "spin": workload.SyncSpinning, "block": workload.SyncBlocking}
)

func (s *HostSpec) fields() kv.Table {
	return kv.Table{kv.Bind("pcpus", &s.PCPUs), kv.Bind("strategy", &s.Strategy),
		kv.Bind("unpinned", &s.Unpinned), kv.Bind("horizon", &s.Horizon)}
}

func (v *HostVM) fields() kv.Table {
	return append(kv.Table{kv.Bind("name", &v.Name), kv.Bind("kind", &v.Kind), kv.Bind("bench", &v.Bench),
		kv.Bind("mode", &v.Mode), kv.Bind("vcpus", &v.VCPUs), kv.Bind("irs", &v.IRS)}, v.Server.Fields()...)
}

// ParseHostSpec parses a host spec (see the HostSpec syntax above) and
// validates it.
func ParseHostSpec(text string) (HostSpec, error) {
	s := HostSpec{Strategy: StrategyVanilla.String()}
	err := kv.Sections(text, []string{"vm"}, func(name, body string) error {
		var t kv.Table
		switch name {
		case "host":
			t = s.fields()
		case "vm":
			s.VMs = append(s.VMs, HostVM{})
			t = s.VMs[len(s.VMs)-1].fields()
		case "faults":
			t = s.Faults.Fields()
		case "attack":
			var err error
			s.Attack, err = workload.ParseAttack(body)
			return err
		default:
			return fmt.Errorf("unknown section %q", name)
		}
		if err := t.Parse(body); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	})
	if err != nil {
		return HostSpec{}, fmt.Errorf("core: host spec: %w", err)
	}
	// kv stores words lower-cased; the catalog names NPB in capitals.
	names := workload.Names()
	for i, v := range s.VMs {
		if n := slices.IndexFunc(names, func(n string) bool { return strings.EqualFold(n, v.Bench) }); n >= 0 {
			s.VMs[i].Bench = names[n]
		}
	}
	if err := s.Validate(); err != nil {
		return HostSpec{}, err
	}
	return s, nil
}

// String renders the spec in the syntax ParseHostSpec accepts, with
// zero-valued fields omitted; ParseHostSpec(s.String()) round-trips to
// an equal spec.
func (s HostSpec) String() string {
	secs := []string{"host:" + s.fields().NonZero()}
	for i := range s.VMs {
		secs = append(secs, "vm:"+s.VMs[i].fields().NonZero())
	}
	if !s.Faults.Zero() {
		secs = append(secs, "faults:"+s.Faults.Fields().NonZero())
	}
	if !s.Attack.Zero() {
		secs = append(secs, "attack:"+s.Attack.String())
	}
	return strings.Join(secs, "; ")
}

// Validate rejects specs Scenario cannot compile into a runnable rig:
// an empty host, unknown strategies, kinds, benchmarks or modes,
// duplicate VM names, pins outside the host's pCPUs, fields set on a
// kind that does not read them, and an attacker without its knobs.
func (s HostSpec) Validate() error {
	if s.PCPUs <= 0 || s.Horizon < 0 {
		return fmt.Errorf("core: host spec needs pcpus > 0 and horizon >= 0 (got %d, %v)", s.PCPUs, s.Horizon)
	}
	if _, ok := StrategyByName(s.Strategy); !ok {
		return fmt.Errorf("core: host strategy %q unknown", s.Strategy)
	}
	if err := s.Faults.Validate(); err != nil {
		return fmt.Errorf("core: faults: %w", err)
	}
	attackers := 0
	for i, v := range s.VMs {
		_, knownMode := syncModes[v.Mode]
		_, knownBench := workload.ByName(v.Bench)
		benchKind := v.Kind == "bench" || v.Kind == "background"
		srv := v.Server
		switch {
		case v.Name == "":
			return fmt.Errorf("core: vm %d needs a name", i)
		case slices.ContainsFunc(s.VMs[:i], func(o HostVM) bool { return o.Name == v.Name }):
			return fmt.Errorf("core: vm name %q already taken", v.Name)
		case !slices.Contains(hostKinds, v.Kind):
			return fmt.Errorf("core: vm %s kind %q not in %v", v.Name, v.Kind, hostKinds)
		case v.VCPUs <= 0:
			return fmt.Errorf("core: vm %s needs vcpus > 0 (got %d)", v.Name, v.VCPUs)
		case !s.Unpinned && v.VCPUs > s.PCPUs:
			return fmt.Errorf("core: vm %s pins %d vCPUs, outside the host's %d pCPUs", v.Name, v.VCPUs, s.PCPUs)
		case benchKind != (v.Bench != "") || !benchKind && v.Mode != "":
			return fmt.Errorf("core: vm %s: bench and mode belong to kinds bench and background", v.Name)
		case benchKind && !knownBench:
			return fmt.Errorf("core: vm %s: unknown benchmark %q", v.Name, v.Bench)
		case !knownMode:
			return fmt.Errorf("core: vm %s: mode %q not spin or block", v.Name, v.Mode)
		case v.Kind != "server" && srv != workload.ServerSpec{}:
			return fmt.Errorf("core: vm %s: server fields on a %s VM", v.Name, v.Kind)
		case v.Kind == "server" && (srv.Service <= 0 || srv.Duration <= 0 || srv.Threads < 0 || srv.Think < 0 ||
			srv.LockEvery < 0 || srv.LockCS < 0 || srv.Arrival < 0):
			return fmt.Errorf("core: vm %s: server needs service > 0, duration > 0 and no negative field", v.Name)
		}
		if v.Kind == "attacker" {
			attackers++
		}
	}
	if (attackers > 0) != !s.Attack.Zero() {
		return fmt.Errorf("core: an attacker VM and the attack section go together (%d attackers, attack %s)", attackers, s.Attack)
	}
	return nil
}

// VM returns the named VM section, or nil.
func (s HostSpec) VM(name string) *HostVM {
	for i := range s.VMs {
		if s.VMs[i].Name == name {
			return &s.VMs[i]
		}
	}
	return nil
}

// WithStrategy returns a copy of s run under strat: the host strategy
// is replaced, and the bench and server VMs — a rig's foreground — get
// SA-capable guests exactly when strat is IRS.
func (s HostSpec) WithStrategy(strat Strategy) HostSpec {
	s.Strategy = strat.String()
	s.VMs = slices.Clone(s.VMs)
	for i := range s.VMs {
		if k := s.VMs[i].Kind; k == "bench" || k == "server" {
			s.VMs[i].IRS = strat == StrategyIRS
		}
	}
	return s
}

// Scenario compiles a valid spec into a Scenario run at seed, building
// every VM through the builders of builders.go.
func (s HostSpec) Scenario(seed uint64) Scenario {
	strat, _ := StrategyByName(s.Strategy)
	scn := Scenario{PCPUs: s.PCPUs, Strategy: strat, Seed: seed, Horizon: s.Horizon,
		Unpinned: s.Unpinned, Faults: s.Faults}
	for _, v := range s.VMs {
		var pins []int
		if !s.Unpinned {
			pins = SeqPins(0, v.VCPUs)
		}
		bench, _ := workload.ByName(v.Bench)
		var vm VMSpec
		switch v.Kind {
		case "bench":
			vm = BenchmarkVM(v.Name, bench, syncModes[v.Mode], v.VCPUs, pins)
		case "background":
			vm = BackgroundVM(v.Name, bench, syncModes[v.Mode], v.VCPUs, pins)
		case "hog":
			vm = HogVM(v.Name, v.VCPUs, pins)
		case "server":
			srv := v.Server
			srv.Name = v.Name
			vm = ServerVM(v.Name, srv, v.VCPUs, pins)
		case "attacker":
			vm = AttackerVM(v.Name, s.Attack, v.VCPUs, pins)
		}
		vm.IRS = v.IRS
		scn.VMs = append(scn.VMs, vm)
	}
	return scn
}
