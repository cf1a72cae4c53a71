package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// mkSpan builds a finished span with the given wall split between
// service and preempt-wait time.
func mkSpan(tr *Tracer, start, service, preempt sim.Time) *Span {
	s := tr.Start(start)
	s.BeginPhase(start, "service", CatService)
	s.Transition(start+service, CatPreemptWait)
	s.Finish(start + service + preempt)
	return s
}

func TestAnalyzeBandsAndShares(t *testing.T) {
	tr := NewTracer()
	var spans []*Span
	// 200 requests: wall grows with i, and only the slowest 10 carry
	// preempt-wait time — the tail has a different blame mix than the
	// body, which is exactly what the bands must surface.
	for i := 1; i <= 200; i++ {
		var preempt sim.Time
		if i > 190 {
			preempt = us(int64(i) * 10)
		}
		spans = append(spans, mkSpan(tr, us(int64(i)*1000), us(int64(i)), preempt))
	}
	a := Analyze(spans, 0)

	if a.Requests != 200 || a.Violations != 0 || a.MaxError != 0 {
		t.Fatalf("requests=%d violations=%d maxErr=%v", a.Requests, a.Violations, a.MaxError)
	}
	if got := len(a.Bands); got != 4 {
		t.Fatalf("bands = %d, want 4", got)
	}
	all := a.Band("all")
	if all == nil || all.Requests != 200 {
		t.Fatalf("all band = %+v", all)
	}
	p99 := a.Band("p99")
	if p99 == nil || p99.Requests != 2 {
		t.Fatalf("p99 band = %+v, want the top-1%% cohort (2 of 200)", p99)
	}
	if a.Band("p99.9") == nil || a.Band("p99.9").Requests != 1 {
		t.Fatal("p99.9 band must hold at least one request")
	}
	// Tail blame: preempt-wait dominates the p99 cohort but not the body.
	if p99.Share(CatPreemptWait) < 0.8 {
		t.Fatalf("p99 preempt share = %v, want > 0.8", p99.Share(CatPreemptWait))
	}
	if a.Band("p50").Share(CatPreemptWait) != 0 {
		t.Fatal("p50 cohort must have no preempt-wait blame")
	}
	// Shares are sorted descending and sum to ~1.
	var sum float64
	for i, sh := range p99.Shares {
		sum += sh.Share
		if i > 0 && sh.Time > p99.Shares[i-1].Time {
			t.Fatal("shares not sorted by time desc")
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("share sum = %v", sum)
	}

	// Slowest returns descending walls.
	slow := a.Slowest(3)
	if len(slow) != 3 || slow[0].Wall() < slow[1].Wall() || slow[1].Wall() < slow[2].Wall() {
		t.Fatalf("slowest not descending: %v %v %v", slow[0].Wall(), slow[1].Wall(), slow[2].Wall())
	}
	if slow[0].Wall() != a.Wall.Max() {
		t.Fatalf("slowest wall %v != sketch max %v", slow[0].Wall(), a.Wall.Max())
	}
	// Per-request critical path of the slowest: preempt-wait first.
	top := slow[0].TopContributors(2)
	if len(top) == 0 || top[0].Cat != CatPreemptWait {
		t.Fatalf("top contributor = %+v, want preempt-wait", top)
	}
}

func TestAnalyzeFlagsConservationViolations(t *testing.T) {
	tr := NewTracer()
	good := mkSpan(tr, us(10), us(100), 0)
	bad := mkSpan(tr, us(20), us(100), 0)
	// Corrupt the bad span's recorded segments behind the API's back.
	skewLastSegment(bad, -us(7))
	a := Analyze([]*Span{good, bad, nil}, 0)
	if a.Requests != 2 {
		t.Fatalf("requests = %d, want 2 (nil skipped)", a.Requests)
	}
	if a.Violations != 1 || a.MaxError != us(7) {
		t.Fatalf("violations=%d maxErr=%v, want 1 and 7µs", a.Violations, a.MaxError)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil, 0)
	if a.Requests != 0 || len(a.Bands) != 0 || a.Band("p99") != nil || len(a.Slowest(5)) != 0 {
		t.Fatal("empty analysis must be empty")
	}
}

func TestWriteChromeSpansDeterministicJSON(t *testing.T) {
	tr := NewTracer()
	spans := []*Span{
		mkSpan(tr, us(100), us(50), us(30)),
		mkSpan(tr, us(200), us(40), 0),
	}
	render := func() string {
		var b bytes.Buffer
		if err := WriteChromeSpans(&b, []TrackSet{{Name: "vanilla", Spans: spans}}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := render()
	if out != render() {
		t.Fatal("chrome span export is not byte-deterministic")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	// B/E events must pair up per (pid, tid).
	depth := map[[2]float64]int{}
	for _, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		key := [2]float64{e["pid"].(float64), e["tid"].(float64)}
		switch ph {
		case "B":
			depth[key]++
		case "E":
			depth[key]--
			if depth[key] < 0 {
				t.Fatal("unbalanced E event")
			}
		}
	}
	for k, d := range depth {
		if d != 0 {
			t.Fatalf("unbalanced B/E on track %v", k)
		}
	}
	for _, want := range []string{"vanilla", "preempt-wait", "service", "queue"} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %q", want)
		}
	}
}
