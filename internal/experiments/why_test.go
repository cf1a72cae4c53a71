package experiments

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/decision"
	"repro/internal/jsonref"
	"repro/internal/span"
)

// TestWhyTrailExactSequence pins the acceptance criterion: the 2z8h
// outage rig's decision trail is exactly the elasticity story — the
// zone cordon, the first failover route, the autoscaler's +2, and the
// two drains after recovery. Anything more (a spurious scale event, a
// failover before the cordon) or less (a missed record) fails here.
//
// The same run, with a span tracer attached, feeds the full-rig
// differential check of the hand-written export encoders: both
// decision exports and the span export must be encoding/json's bytes.
func TestWhyTrailExactSequence(t *testing.T) {
	t.Parallel()
	_, cfg, err := ScaleRig(ScaleOutageSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := span.NewTracer()
	cfg.Spans = tr
	cfg.Decisions = &decision.Options{Kinds: decision.ControlKinds()}
	c, _, err := runCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := c.Decisions().Records()
	checkExportsMatchEncodingJSON(t, recs, c.Decisions().Dropped(), tr.Finished())
	trail := decision.Trail(recs)
	const want = "cordon,failover,scale-up,scale-up,drain,drain"
	if got := decision.TrailString(trail); got != want {
		t.Fatalf("trail = %q, want %q", got, want)
	}
	// The failover route must postdate its cordon and carry the
	// failover input that marks rerouted traffic.
	if trail[1].Rec.At < trail[0].Rec.At {
		t.Fatalf("failover at %v precedes cordon at %v", trail[1].Rec.At, trail[0].Rec.At)
	}
	if _, ok := trail[1].Rec.Input("failover"); !ok {
		t.Fatal("failover step lacks the failover input")
	}
	// Scale directions must agree with the labels.
	for _, step := range trail[2:] {
		act, _ := step.Rec.Input("act")
		switch step.Label {
		case "scale-up":
			if act != "up" {
				t.Fatalf("scale-up step has act=%q", act)
			}
		case "drain":
			if act != "down" {
				t.Fatalf("drain step has act=%q", act)
			}
		}
	}
}

// checkExportsMatchEncodingJSON diffs both decision exports against
// their encoding/json references, and checks that both Chrome-trace
// exports equal their own encoding/json re-encoding. Decoding the rig's whole
// span export (about 250k events) for the re-encoding would cost over
// a second, so the span export is diffed over every eighth finished
// span, which still spans the whole run.
func checkExportsMatchEncodingJSON(t *testing.T, recs []decision.Record, dropped uint64, finished []*span.Span) {
	t.Helper()
	var spans []*span.Span
	for i := 0; i < len(finished); i += 8 {
		spans = append(spans, finished[i])
	}
	var got, want bytes.Buffer
	if err := decision.WriteJSON(&got, recs, dropped); err != nil {
		t.Fatal(err)
	}
	if err := jsonref.DecisionJSON(&want, recs, dropped); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("decision.WriteJSON differs from encoding/json (%d bytes, want %d)", got.Len(), want.Len())
	}
	got.Reset()
	if err := decision.WriteChromeTrace(&got, recs); err != nil {
		t.Fatal(err)
	}
	if ref, err := jsonref.DecisionChromeTrace(recs); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(got.Bytes(), ref) {
		t.Errorf("decision.WriteChromeTrace differs from its encoding/json mapping (%d bytes, want %d)", got.Len(), len(ref))
	}
	for _, ex := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"decision.WriteChromeTrace", func(w io.Writer) error { return decision.WriteChromeTrace(w, recs) }},
		{"span.WriteChromeSpans", func(w io.Writer) error {
			return span.WriteChromeSpans(w, []span.TrackSet{{Name: "why", Spans: spans}})
		}},
	} {
		var doc bytes.Buffer
		if err := ex.write(&doc); err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		ref, err := jsonref.ReencodeChromeTrace(doc.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		if !bytes.Equal(doc.Bytes(), ref) {
			t.Errorf("%s differs from encoding/json (%d bytes, want %d)", ex.name, doc.Len(), len(ref))
		}
	}
}
