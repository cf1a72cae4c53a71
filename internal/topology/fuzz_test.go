package topology_test

import (
	"reflect"
	"testing"

	"repro/internal/topology"
)

// FuzzParseLoadSpec asserts that arbitrary cluster-load specs never
// panic and that any spec ParseLoadSpec accepts is valid and survives a
// String → ParseLoadSpec round trip to a deeply equal value.
func FuzzParseLoadSpec(f *testing.F) {
	seeds := []string{
		"",
		"topo:zones=2,hosts=8,pcpus=4",
		"topo:zones=2,hosts=8,pcpus=4; sched:policy=ia,strategy=irs,migrate=on; " +
			"load:arrival=1ms,service=2ms,slo=25ms,duration=12s,drain=2s; " +
			"ramp:1500us@0,1ms@2s,800us@4s; " +
			"tenants:servers=2,server-vcpus=2,ants=2,ant-vcpus=2,spacing=500ms; " +
			"outage:zone=1,at=6s,for=1200ms; " +
			"alert:budget=0.02,fast=500ms,slow=2s,burn=3; " +
			"autoscale:max=8,step=2,cooldown=1500ms,down-after=2500ms",
		"load:arrival=1ms,duration=6s; diurnal:period=2s,swing=0.4,steps=8",
		"sched:policy=first-fit,strategy=vanilla,overcommit=2,migrate=off",
		"# comment\ntopo:zones=3,hosts=2\noutage:zone=0,at=1s,for=500ms\noutage:zone=2,at=2s,for=500ms",
		"TOPO: zones = 2 , hosts = 4",
		"topo:zones=2",
		"bogus:zones=2",
		"topo zones=2",
		"topo:zones=two",
		"topo:zones=2,zones=3",
		"topo:zones=-1,hosts=4",
		"ramp:1ms@0; diurnal:period=2s,swing=0.3",
		"ramp:1ms@1s,2ms@1s",
		"ramp:1ms",
		"outage:zone=9,at=1s,for=1s",
		"autoscale:max=8",
		"alert:fast=2s,slow=1s",
		"tenants:servers=0,ants=1",
		"load:arrival=9223372036854775807ns",
		"sched:overcommit=nan",
		";;;",
		"=,=,=",
		"tenants:servers=0; vm:name=srv0,kind=server,vcpus=2; vm:name=bully,kind=ant,vcpus=4,weight=2048,at=4s",
		"vm:name=x,kind=ant,vcpus=1; vm:name=x,kind=server,vcpus=1",
		"vm:name=srv1,kind=server,vcpus=2",
		"vm:name=a,kind=db,vcpus=0,weight=-1,at=-1s",
		"faults:drop-sa=0.1,stale-runstate=200us,host-blackout-every=6s,host-blackout-for=60ms",
		"faults:drop-sa=0",
		"faults:drop-sa=NaN",
		"faults:host-blackout-for=1s",
		"alert:name=page,budget=0.02,slow=2500ms",
		"alert:name=,budget=0.02",
		"alert:name=a b,budget=0.02",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := topology.ParseLoadSpec(text)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseLoadSpec(%q) accepted invalid spec %+v: %v", text, s, err)
		}
		back, err := topology.ParseLoadSpec(s.String())
		if err != nil {
			t.Fatalf("ParseLoadSpec(%q) -> %q does not re-parse: %v", text, s.String(), err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip of %q: %+v != %+v (via %q)", text, back, s, s.String())
		}
		// Derived artifacts must never panic on a valid spec.
		_ = s.Topology()
		_ = s.Stages()
	})
}
