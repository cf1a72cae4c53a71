package obs_test

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The export goldens pin the exact bytes of the Prometheus, CSV and
// Chrome-trace exporters on a short irsreport-style scenario. When a
// change to the output is intentional, regenerate with:
//
//	go test ./internal/obs -run TestGoldenExports -update

var update = flag.Bool("update", false, "rewrite the golden export files")

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (%d bytes, want %d)", name, len(got), len(want))
	}
}

// reportScenario runs streamcluster under IRS against one hog for a
// short horizon, with the registry, sampler and both trace hooks
// attached as irsreport does, plus a blackout fault so the trace
// carries every typed record shape.
func reportScenario(t *testing.T) (*obs.Registry, *obs.Sampler, *trace.Log) {
	t.Helper()
	plan, err := fault.ParsePlan("blackout-every=5ms,blackout-for=1ms")
	if err != nil {
		t.Fatal(err)
	}
	bench, ok := workload.ByName("streamcluster")
	if !ok {
		t.Fatal("streamcluster missing")
	}
	reg := obs.NewRegistry()
	log := trace.NewLog(500000)
	fg := core.BenchmarkVM("fg", bench, 0, 4, core.SeqPins(0, 4))
	fg.IRS = true
	c, err := core.Build(core.Scenario{
		PCPUs:          4,
		Strategy:       core.StrategyIRS,
		Seed:           1,
		Horizon:        150 * sim.Millisecond,
		VMs:            []core.VMSpec{fg, core.HogVM("bg", 1, core.SeqPins(0, 1))},
		Metrics:        reg,
		SampleInterval: 25 * sim.Millisecond,
		Faults:         plan,
		Invariants:     true,
		TuneHV:         func(c *hypervisor.Config) { c.Trace = log },
		TuneGuest: func(name string, c *guest.Config) {
			if name == "fg" {
				c.Trace = log
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil && !errors.Is(err, core.ErrUnfinished) {
		t.Fatal(err)
	}
	c.Sampler.Sample()
	return reg, c.Sampler, log
}

func TestGoldenExports(t *testing.T) {
	reg, smp, log := reportScenario(t)
	render := func(write func(io.Writer) error) []byte {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	checkGolden(t, "report.prom", render(func(w io.Writer) error { return obs.WritePrometheus(w, reg) }))
	checkGolden(t, "report.csv", render(func(w io.Writer) error { return obs.WriteCSV(w, smp) }))

	tr := render(func(w io.Writer) error {
		return obs.WriteChromeTrace(w, log, 40*sim.Millisecond, 100*sim.Millisecond)
	})
	// The window must exercise every record shape the exporter maps.
	for _, want := range []string{`"name":"switch"`, `acked after`, `"name":"migrate"`, `blackout for`, `"ph":"B"`, `"ph":"E"`} {
		if !strings.Contains(string(tr), want) {
			t.Errorf("trace window lacks %s", want)
		}
	}
	checkGolden(t, "report.trace.json", tr)
}
