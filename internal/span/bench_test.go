package span

import (
	"io"
	"testing"
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
