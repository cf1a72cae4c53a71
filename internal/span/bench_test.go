package span

import (
	"io"
	"testing"

	"repro/internal/sim"
)

// BenchmarkWriteChromeSpans is the Perfetto export of 2048 finished
// requests, each with a queue and a service phase of several segments
// (about 14 events per request).
func BenchmarkWriteChromeSpans(b *testing.B) {
	tr := NewTracer()
	for i := int64(0); i < 2048; i++ {
		s := tr.Start(us(100 * i))
		s.BeginPhase(us(100*i+20), "service", CatKernel)
		s.Transition(us(100*i+22), CatService)
		s.Transition(us(100*i+50), CatPreemptWait)
		s.Transition(us(100*i+70), CatService)
		s.Finish(us(100*i + 90))
	}
	sets := []TrackSet{{Name: "bench", Spans: tr.Finished()}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeSpans(io.Discard, sets); err != nil {
			b.Fatal(err)
		}
	}
}

// lifecycle runs one request through the outage rig's span shape: a
// queue phase, then a service phase of kernel entry, service, a
// preemption and more service (two phases, four segments).
func lifecycle(tr *Tracer, at sim.Time) *Span {
	s := tr.Start(at)
	s.BeginPhase(at, "service", CatKernel)
	s.Transition(at+us(2), CatService)
	s.Transition(at+us(30), CatPreemptWait)
	s.Transition(at+us(50), CatService)
	s.Finish(at + us(70))
	return s
}

// BenchmarkSpanLifecycle is the recording cost of one request span of
// the rig's shape, from Start to Finish. The tracer's finished list is
// reset each iteration so only the span itself is measured.
func BenchmarkSpanLifecycle(b *testing.B) {
	tr := NewTracer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lifecycle(tr, us(int64(i)))
		resetFinished(tr)
	}
}

// analyzeSpans builds n finished spans with a spread of walls and
// blame mixes: a queue phase, then service interleaved with preemption
// and LHP spin, as in a loaded rig. Walls repeat, so the sort breaks
// ties on ID.
func analyzeSpans(n int) []*Span {
	tr := NewTracer()
	spans := make([]*Span, 0, n)
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		at := us(int64(i) * 50)
		q, svc, pre := us(int64(x>>60)), us(int64(x>>56&0xf)+1), us(int64(x>>52&0xf))
		s := tr.Start(at)
		s.BeginPhase(at+q, "service", CatService)
		s.Transition(at+q+svc, CatPreemptWait)
		s.Transition(at+q+svc+pre, CatLHPSpin)
		s.Finish(at + q + svc + pre + us(int64(x>>48&0x3)))
		spans = append(spans, s)
	}
	return spans
}

// analysisSink keeps BenchmarkAnalyze's result live.
var analysisSink *Analysis

// BenchmarkAnalyze is the blame analysis of 8192 finished spans.
func BenchmarkAnalyze(b *testing.B) {
	spans := analyzeSpans(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysisSink = Analyze(spans, 0)
	}
}
