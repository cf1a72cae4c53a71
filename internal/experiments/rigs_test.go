package experiments

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/topology"
)

// TestRigsParseRoundTripAndBuild: every named rig is a valid load spec
// with a unique name, renders back to an equal spec, and compiles to a
// config cluster.New accepts — hardened exactly when it injects faults.
func TestRigsParseRoundTripAndBuild(t *testing.T) {
	seen := map[string]bool{}
	tables := map[string]int{}
	for _, r := range Rigs() {
		if seen[r.Name] {
			t.Fatalf("duplicate rig name %q", r.Name)
		}
		seen[r.Name] = true
		tables[r.Table]++
		spec, cfg, err := ScaleRig(r.Spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		back, err := topology.ParseLoadSpec(spec.String())
		if err != nil || !reflect.DeepEqual(back, spec) {
			t.Fatalf("%s: round trip via %q: %+v, %v", r.Name, spec.String(), back, err)
		}
		if hardened := cfg.TuneHV != nil && cfg.TuneGuest != nil; hardened == spec.Faults.Zero() {
			t.Fatalf("%s: hardened=%v with faults %+v", r.Name, hardened, spec.Faults)
		}
		if _, err := cluster.New(cfg); err != nil {
			t.Fatalf("%s: cluster.New: %v", r.Name, err)
		}
		if got, ok := RigByName(r.Name); !ok || got != r {
			t.Fatalf("RigByName(%q) = %+v, %v", r.Name, got, ok)
		}
	}
	if want := map[string]int{"scale": 3, "cluster": 5, "watch": 2}; !reflect.DeepEqual(tables, want) {
		t.Fatalf("rigs per table = %v, want %v", tables, want)
	}
}
