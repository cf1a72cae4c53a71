package topology

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

const specAcceptance = "topo:zones=2,hosts=8,pcpus=4; sched:policy=ia,strategy=irs,migrate=on; " +
	"load:arrival=1ms,service=2ms,slo=25ms,duration=12s,drain=2s; " +
	"ramp:1500us@0,1ms@2s,800us@4s; " +
	"tenants:servers=2,server-vcpus=2,ants=2,ant-vcpus=2,spacing=500ms; " +
	"outage:zone=1,at=6s,for=1200ms; " +
	"alert:budget=0.02,fast=500ms,slow=2s,burn=3; " +
	"autoscale:max=8,step=2,cooldown=1500ms,down-after=2500ms"

func TestParseLoadSpec(t *testing.T) {
	s, err := ParseLoadSpec(specAcceptance)
	if err != nil {
		t.Fatalf("ParseLoadSpec: %v", err)
	}
	if s.Zones != 2 || s.HostsPerZone != 8 || s.PCPUs != 4 {
		t.Fatalf("topo: %d×%d×%d", s.Zones, s.HostsPerZone, s.PCPUs)
	}
	if s.Policy != "ia" || s.Strategy != "irs" || !s.Migrate {
		t.Fatalf("sched: %+v", s)
	}
	if s.Overcommit != 1.5 { // default applied
		t.Fatalf("overcommit default: %v", s.Overcommit)
	}
	if s.Arrival != sim.Millisecond || s.SLO != 25*sim.Millisecond || s.Duration != 12*sim.Second {
		t.Fatalf("load: %+v", s)
	}
	if len(s.Ramp) != 3 || s.Ramp[0] != (Stage{Arrival: 1500 * sim.Microsecond, At: 0}) ||
		s.Ramp[2] != (Stage{Arrival: 800 * sim.Microsecond, At: 4 * sim.Second}) {
		t.Fatalf("ramp: %+v", s.Ramp)
	}
	if len(s.Outages) != 1 || s.Outages[0] != (OutageSpec{Zone: 1, At: 6 * sim.Second, For: 1200 * sim.Millisecond}) {
		t.Fatalf("outages: %+v", s.Outages)
	}
	if s.Alert == nil || s.Alert.Burn != 3 || s.Alert.Slow != 2*sim.Second {
		t.Fatalf("alert: %+v", s.Alert)
	}
	if s.Autoscale == nil || s.Autoscale.Max != 8 || s.Autoscale.Step != 2 ||
		s.Autoscale.Interval != 250*sim.Millisecond { // default applied
		t.Fatalf("autoscale: %+v", s.Autoscale)
	}
}

func TestParseLoadSpecNewlinesAndComments(t *testing.T) {
	text := `# acceptance rig
topo:zones=2,hosts=4,pcpus=4
sched:policy=ia,strategy=irs # inner interference-aware level
load:arrival=1ms,service=2ms,slo=25ms,duration=4s
outage:zone=0,at=1s,for=500ms
outage:zone=1,at=2s,for=500ms`
	s, err := ParseLoadSpec(text)
	if err != nil {
		t.Fatalf("ParseLoadSpec: %v", err)
	}
	if s.Zones != 2 || len(s.Outages) != 2 || s.Outages[1].Zone != 1 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestParseLoadSpecDefaults(t *testing.T) {
	s, err := ParseLoadSpec("")
	if err != nil {
		t.Fatalf("empty spec must default-validate: %v", err)
	}
	if s.Zones != 1 || s.HostsPerZone != 4 || s.Policy != "ia" || s.Strategy != "irs" {
		t.Fatalf("defaults: %+v", s)
	}
	if s.Stages() != nil {
		t.Fatalf("flat spec must have no stages")
	}
}

func TestParseLoadSpecErrors(t *testing.T) {
	cases := []struct{ name, text, want string }{
		{"bad-section", "bogus:zones=2", "unknown section"},
		{"no-colon", "topo zones=2", "not name:key"},
		{"dup-section", "topo:zones=2,hosts=4; topo:zones=1,hosts=4", "duplicate section"},
		{"unknown-field", "topo:zoness=2", "unknown field"},
		{"dup-field", "topo:zones=2,zones=3", "duplicate field"},
		{"bad-int", "topo:zones=two", "invalid syntax"},
		{"bad-dur", "load:arrival=fast", "time"},
		{"bad-policy", "sched:policy=psychic", "policy"},
		{"bad-strategy", "sched:strategy=magic", "strategy"},
		{"ramp-and-diurnal", "ramp:1ms@0; diurnal:period=2s,swing=0.3", "both ramp and diurnal"},
		{"ramp-not-advancing", "ramp:1ms@1s,2ms@1s", "does not advance"},
		{"ramp-bad-stage", "ramp:1ms", "not arrival@at"},
		{"outage-bad-zone", "topo:zones=2,hosts=4; outage:zone=5,at=1s,for=1s", "outside"},
		{"outage-no-duration", "outage:zone=0,at=1s,for=0s", "for > 0"},
		{"diurnal-swing", "diurnal:period=2s,swing=1.5", "swing"},
		{"autoscale-sans-alert", "autoscale:max=8", "needs an alert"},
		{"autoscale-max-low", "alert:budget=0.02; autoscale:min=4,max=2", "below floor"},
		{"alert-windows", "alert:fast=2s,slow=1s", "incoherent"},
		{"no-servers", "tenants:servers=0,ants=1", "no server VMs"},
		{"explicit-zero-dim", "topo:zones=0", "zones must be positive"},
		{"empty-field", "load:arrival=1ms,", "empty field"},
		{"vm-unknown-kind", "vm:name=x,kind=db,vcpus=1", `kind "db"`},
		{"vm-zero-vcpus", "vm:name=x,kind=ant,vcpus=0", "vcpus > 0"},
		{"vm-negative-weight", "vm:name=x,kind=ant,vcpus=1,weight=-1", "weight >= 0"},
		{"vm-negative-at", "vm:name=x,kind=ant,vcpus=1,at=-1s", "at >= 0"},
		{"vm-no-name", "vm:kind=ant,vcpus=1", "needs a name"},
		{"vm-dup-name", "vm:name=x,kind=ant,vcpus=1; vm:name=x,kind=ant,vcpus=2", `"x" already taken`},
		{"vm-mix-name", "vm:name=srv0,kind=server,vcpus=2", `"srv0" already taken`},
		{"vm-autoscale-prefix", "alert:budget=0.02; autoscale:max=8; vm:name=srv-auto-as1,kind=server,vcpus=2", "reserved prefix"},
		{"vm-no-servers", "tenants:servers=0; vm:name=x,kind=ant,vcpus=1", "no server VMs"},
		{"faults-nan", "faults:drop-sa=NaN", "not a finite number"},
		{"faults-probability", "faults:drop-sa=2", "outside [0,1]"},
		{"faults-half-blackout", "faults:host-blackout-every=1s", "must both be positive"},
		{"faults-empty", "faults:", "empty field"},
		{"alert-empty-name", "alert:name=,budget=0.02", "alert name"},
		{"alert-reserved-name", "alert:name=a:b,budget=0.02", "alert name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseLoadSpec(tc.text)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestLoadSpecRoundTrip: String() renders a spec ParseLoadSpec reads
// back to an equal value — the property the fuzz target hammers.
func TestLoadSpecRoundTrip(t *testing.T) {
	texts := []string{
		"",
		specAcceptance,
		"topo:zones=3,hosts=2,pcpus=8; diurnal:period=6s,swing=0.4,steps=12; tenants:servers=1,ants=0",
		"sched:policy=first-fit,strategy=vanilla,overcommit=2,migrate=off",
		specNamedVMs,
		"vm:name=late,kind=server,vcpus=4,at=2s; faults:drop-sa=0.1,stale-runstate=200us",
	}
	for _, text := range texts {
		s, err := ParseLoadSpec(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		back, err := ParseLoadSpec(s.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", s.String(), err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip drifted:\n  in:  %+v\n  out: %+v\n  via: %s", s, back, s.String())
		}
	}
}

// specNamedVMs is a rig written as named VMs only: no tenant mix, a
// late heavy antagonist, faults, and a named alert rule.
const specNamedVMs = "topo:zones=1,hosts=2; tenants:servers=0; " +
	"vm:name=victim,kind=server,vcpus=2; vm:name=bully,kind=ANT,vcpus=4,weight=2048,at=4s; " +
	"faults:drop-wake=0.05,host-blackout-every=6s,host-blackout-for=60ms; " +
	"alert:name=page,budget=0.02,slow=2500ms"

func TestParseLoadSpecNamedVMs(t *testing.T) {
	s, err := ParseLoadSpec(specNamedVMs)
	if err != nil {
		t.Fatal(err)
	}
	want := []VMSpec{{Name: "victim", Kind: "server", VCPUs: 2}, {Name: "bully", Kind: "ant", VCPUs: 4, Weight: 2048, At: 4 * sim.Second}}
	if s.ServersPerZone != 0 || !reflect.DeepEqual(s.VMs, want) || s.Servers() != 1 {
		t.Fatalf("servers=%d vms=%+v Servers()=%d", s.ServersPerZone, s.VMs, s.Servers())
	}
	if s.Faults.Plan.DropWake != 0.05 || s.Faults.HostBlackoutEvery != 6*sim.Second || s.Faults.HostBlackoutFor != 60*sim.Millisecond {
		t.Fatalf("faults: %+v", s.Faults)
	}
	if s.Alert.Name != "page" || s.Alert.Slow != 2500*sim.Millisecond || s.Alert.Burn != 3 {
		t.Fatalf("alert: %+v", s.Alert)
	}
	// An unnamed alert keeps the name the scale rigs always had.
	if s, err := ParseLoadSpec("alert:budget=0.02"); err != nil || s.Alert.Name != defaultAlertName {
		t.Fatalf("unnamed alert: %+v, %v", s.Alert, err)
	}
	// Faults that inject nothing are no faults: not rendered, nothing to harden.
	if s, err := ParseLoadSpec("faults:drop-sa=0"); err != nil || !s.Faults.Zero() || strings.Contains(s.String(), "faults") {
		t.Fatalf("zero faults: %+v, %v", s, err)
	}
}

func TestLoadSpecStages(t *testing.T) {
	// Explicit ramp wins verbatim.
	s, err := ParseLoadSpec("ramp:2ms@0,1ms@1s")
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stages(); len(st) != 2 || st[1].Arrival != sim.Millisecond {
		t.Fatalf("ramp stages: %+v", st)
	}

	// Diurnal compiles to Duration/step stages oscillating around the
	// base arrival: peak-load stages (sin > 0) have a shorter mean
	// inter-arrival, trough stages a longer one.
	s, err = ParseLoadSpec("load:arrival=1ms,duration=4s; diurnal:period=2s,swing=0.5,steps=4")
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stages()
	if len(st) != 8 { // 4s duration / (2s/4 steps)
		t.Fatalf("diurnal stages: %d", len(st))
	}
	if st[0].Arrival != sim.Millisecond {
		t.Fatalf("stage 0 must be the base rate, got %v", st[0].Arrival)
	}
	if st[1].Arrival >= sim.Millisecond || st[3].Arrival <= sim.Millisecond {
		t.Fatalf("diurnal curve inverted: %+v", st[:4])
	}
	// Periodic: stage 4 repeats stage 0.
	if st[4].Arrival != st[0].Arrival {
		t.Fatalf("diurnal not periodic: %v vs %v", st[4].Arrival, st[0].Arrival)
	}
}

func TestLoadSpecTopology(t *testing.T) {
	s, err := ParseLoadSpec("topo:zones=2,hosts=8")
	if err != nil {
		t.Fatal(err)
	}
	topo := s.Topology()
	if topo.Zones() != 2 || topo.Hosts() != 16 {
		t.Fatalf("Topology() = %v", topo)
	}
}
