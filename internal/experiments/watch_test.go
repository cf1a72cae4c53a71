package experiments

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/watch"
)

// bullyArrive is when the bully rig's late interferer lands.
const bullyArrive = 4 * sim.Second

// runWatchVariant executes one watchdog rig variant at the golden seed,
// with the span tracer attached as the watch table runs it, and
// returns the live watcher for inspection.
func runWatchVariant(t *testing.T, name string) *watch.Watcher {
	t.Helper()
	v, ok := RigByName(name)
	if !ok {
		t.Fatalf("unknown watch variant %q", name)
	}
	_, cfg, err := ScaleRig(v.Spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Spans = span.NewTracer()
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("%s: %d invariant violations", name, res.Violations)
	}
	return c.Watcher()
}

func TestWatchQuietVariantStaysSilent(t *testing.T) {
	w := runWatchVariant(t, "quiet")
	if n := len(w.Alerts()); n != 0 {
		t.Fatalf("quiet rig fired %d alerts: %+v", n, w.Alerts())
	}
	if n := len(w.Recorder().Incidents()); n != 0 {
		t.Fatalf("quiet rig captured %d incidents", n)
	}
}

func TestWatchBullyDetectedAndAttributed(t *testing.T) {
	// The experiment's headline acceptance criteria: the burn-rate rule
	// fires within one slow window of the bully landing, and attribution
	// ranks the bully first with at least twice the runner-up's score.
	w := runWatchVariant(t, "bully")
	alerts := w.Alerts()
	if len(alerts) == 0 {
		t.Fatal("bully rig fired no alerts")
	}
	first := alerts[0]
	if first.At < bullyArrive {
		t.Fatalf("alert at %v predates the bully landing at %v", first.At, bullyArrive)
	}
	if lat, slow := first.At-bullyArrive, first.Rule.Slow; lat >= slow {
		t.Fatalf("detection latency %v not under one slow window (%v)", lat, slow)
	}

	ranked, triples := w.Rankings()
	if len(ranked) < 2 {
		t.Fatalf("attribution ranked %d aggressors, want at least bully + runner-up: %+v", len(ranked), ranked)
	}
	top, runner := ranked[0], ranked[1]
	if top.Aggressor != "bully" || top.Victim != "srv0" {
		t.Fatalf("top ranking = %s hurting %s, want bully hurting srv0", top.Aggressor, top.Victim)
	}
	if runner.Score > 0 && top.Score < 2*runner.Score {
		t.Fatalf("bully score %.4f not >= 2x runner-up %s %.4f",
			top.Score, runner.Aggressor, runner.Score)
	}
	// The hog on the other host must never be blamed.
	for _, tr := range triples {
		if tr.Aggressor == "ant-far" {
			t.Fatalf("cross-host hog blamed: %+v", tr)
		}
	}

	incs := w.Recorder().Incidents()
	if len(incs) == 0 {
		t.Fatal("alert fired but no incident bundle captured")
	}
	if incs[0].Alert == nil || incs[0].Alert.Rule.Name != "page" {
		t.Fatalf("incident bundle not tied to the page rule: %+v", incs[0].Alert)
	}
}

func TestWatchDetectionWithinOneEpochOfBurn(t *testing.T) {
	// Sanity on the cadence math: the fast window is 500ms, so with the
	// violation rate the bully induces, the first alert must land within
	// a handful of epochs after the fast window fills — well before the
	// slow window elapses.
	w := runWatchVariant(t, "bully")
	if len(w.Alerts()) == 0 {
		t.Fatal("no alerts")
	}
	if lat := w.Alerts()[0].At - bullyArrive; lat > 1500*sim.Millisecond {
		t.Fatalf("detection latency %v, expected well under 1.5s for a saturating bully", lat)
	}
}
