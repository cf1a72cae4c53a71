package span_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/span"
)

// The export golden pins the exact bytes of WriteChromeSpans on a short
// blame run, the way irsblame -perfetto renders it. When a change to
// the output is intentional, regenerate with:
//
//	go test ./internal/span -run TestGoldenChromeSpans -update

var update = flag.Bool("update", false, "rewrite the golden export files")

func TestGoldenChromeSpans(t *testing.T) {
	var sets []span.TrackSet
	for _, v := range []struct {
		name  string
		strat core.Strategy
	}{{"vanilla", core.StrategyVanilla}, {"irs", core.StrategyIRS}} {
		spans, err := experiments.BlameRun(experiments.BlameRig(50*sim.Millisecond, experiments.DefaultBlameArrival), v.strat, 1)
		if err != nil {
			t.Fatal(err)
		}
		an := span.Analyze(spans, obs.DefaultSketchAlpha)
		sets = append(sets, span.TrackSet{Name: v.name, Spans: an.Slowest(4)})
	}
	var buf bytes.Buffer
	if err := span.WriteChromeSpans(&buf, sets); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "blame.trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("blame.trace.json drifted from golden (%d bytes, want %d)", buf.Len(), len(want))
	}
}
