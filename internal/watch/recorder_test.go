package watch

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/trace"
)

func finishedSpan(tr *span.Tracer, start, end sim.Time) *span.Span {
	s := tr.Start(start)
	s.Transition(start, span.CatService)
	s.Finish(end)
	return s
}

func TestRecorderSpanRingBounded(t *testing.T) {
	rec := &Recorder{}
	tr := span.NewTracer()
	tr.OnFinish = rec.ObserveSpan
	const n = spanRing + 10
	for i := 1; i <= n; i++ {
		// The oldest spans are the slowest, so only eviction keeps
		// them out of the bundle.
		finishedSpan(tr, sim.Time(i), sim.Time(i)+sim.Time(n-i)*sim.Microsecond)
	}
	if rec.SpanCount() != n {
		t.Fatalf("span count = %d, want %d", rec.SpanCount(), n)
	}
	if len(rec.spans) != spanRing {
		t.Fatalf("ring holds %d spans, want cap %d", len(rec.spans), spanRing)
	}
	inc := rec.Capture(sim.Second, "invariant", "test", nil, 0)
	if inc == nil {
		t.Fatal("capture failed")
	}
	if len(inc.Spans) != traceSpanCount {
		t.Fatalf("bundle spans = %d, want %d", len(inc.Spans), traceSpanCount)
	}
	// Ring keeps the most recent spans: IDs 11..n.
	for _, s := range inc.Spans {
		if s.ID <= 10 {
			t.Fatalf("evicted span %d still in bundle", s.ID)
		}
	}
}

func TestRecorderIncidentCap(t *testing.T) {
	rec := &Recorder{}
	for i := 1; i <= maxIncidents; i++ {
		if rec.Capture(sim.Time(i), "invariant", "a", nil, 0) == nil {
			t.Fatalf("capture %d refused", i)
		}
	}
	if rec.Capture(maxIncidents+1, "invariant", "c", nil, 0) != nil {
		t.Fatal("cap not enforced")
	}
	if len(rec.Incidents()) != maxIncidents {
		t.Fatalf("incidents = %d", len(rec.Incidents()))
	}
}

func TestIncidentBundleJSONAndTrace(t *testing.T) {
	rec := &Recorder{}
	tr := span.NewTracer()
	tr.OnFinish = rec.ObserveSpan
	finishedSpan(tr, sim.Millisecond, 5*sim.Millisecond)

	log := trace.NewLog(16)
	log.Record(2*sim.Millisecond, trace.KindNote, "p0", "hello")
	rec.HostLog("host0", log)

	st := NewStore(sim.Millisecond, 8)
	st.Observe("lat", obs.Labels{VM: "a"}, sim.Millisecond, float64(3*sim.Millisecond))
	st.Observe(SeriesPain, labelsFor("h0", "a"), sim.Millisecond, 7)

	inc := rec.Capture(8*sim.Millisecond, "slo-alert", "details here", st, 0)
	if inc == nil {
		t.Fatal("capture failed")
	}

	var buf bytes.Buffer
	if err := inc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"slo-alert", "details here", "host0", "hello", "watch.pain", `"lat"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("bundle JSON missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := inc.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
}

func TestWatcherRecordInvariant(t *testing.T) {
	eng := sim.NewEngine()
	w := New(Config{})
	eng.Every(Interval, func() { w.RunEpoch(eng.Now()) })
	eng.At(sim.Second, func() {
		w.RecordInvariant(eng.Now(), "sa-accounting", "mismatch")
	})
	if err := eng.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	seen := w.Recorder().Incidents()
	if len(seen) != 1 {
		t.Fatalf("incidents = %d, want 1", len(seen))
	}
	if seen[0].Reason != "invariant" || !strings.Contains(seen[0].Detail, "sa-accounting") {
		t.Fatalf("incident = %+v", seen[0])
	}
}
