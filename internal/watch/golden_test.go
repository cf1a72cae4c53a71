package watch_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/span"
)

// The incident goldens pin the exact bytes of the first incident
// bundle the bully rig captures, in both halves irsload -alerts -dump
// writes, over a 5 s request stream.
// When a change to the output is intentional, regenerate with:
//
//	go test ./internal/watch -run TestGoldenIncident -update

var update = flag.Bool("update", false, "rewrite the golden incident files")

func TestGoldenIncident(t *testing.T) {
	v, _ := experiments.RigByName("bully")
	_, cfg, err := experiments.ScaleRig(v.Spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 5 * sim.Second
	cfg.Spans = span.NewTracer()
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	incs := c.Watcher().Recorder().Incidents()
	if len(incs) == 0 {
		t.Fatal("bully rig captured no incident")
	}
	var js, tr bytes.Buffer
	if err := incs[0].WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := incs[0].WriteTrace(&tr); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		got  []byte
	}{{"incident.json", js.Bytes()}, {"incident.trace.json", tr.Bytes()}} {
		path := filepath.Join("testdata", g.name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("no golden (run with -update to create): %v", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s drifted from golden (%d bytes, want %d)", g.name, len(g.got), len(want))
		}
	}
}
