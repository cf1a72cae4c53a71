//go:build determinism

package experiments

import "testing"

// TestAllParallelMatchesSerial runs the full paper-figure set both ways
// and compares the concatenated renderings byte for byte. It costs
// about two serial `irsim -runs 1 all` passes, so it sits behind the
// determinism build tag and runs from `make determinism`; tier-1
// covers serial = parallel for every table through TestGoldenTables.
func TestAllParallelMatchesSerial(t *testing.T) {
	render := func(tables []Table) string {
		var s string
		for _, tb := range tables {
			s += tb.String() + "\n"
		}
		return s
	}
	serial := render(All(detOpt(1)))
	par := render(All(detOpt(4)))
	if par != serial {
		t.Errorf("experiments.All parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, par)
	}
}
