package span

import (
	"io"
	"math"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

func us(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }

func TestSpanTilesWallExactly(t *testing.T) {
	tr := NewTracer()
	s := tr.Start(us(100))
	s.BeginPhase(us(150), "service", CatKernel)
	s.Transition(us(152), CatService)
	s.Transition(us(200), CatPreemptWait)
	s.Transition(us(230), CatService)
	s.Finish(us(260))

	if !s.Finished() || s.Wall() != us(160) {
		t.Fatalf("wall = %v, want 160µs", s.Wall())
	}
	if err := s.ConservationError(); err != 0 {
		t.Fatalf("conservation error = %v, want 0", err)
	}
	tot := s.Totals()
	if tot[CatQueueWait] != us(50) || tot[CatKernel] != us(2) ||
		tot[CatService] != us(78) || tot[CatPreemptWait] != us(30) {
		t.Fatalf("totals = %v", tot)
	}

	// The segments of each phase tile the phase; the phases tile the span.
	if s.NumPhases() != 2 || s.Phase(0).Name != "queue" || s.Phase(1).Name != "service" {
		t.Fatalf("phases = %+v", spanPhases(s))
	}
	cursor := s.Start
	for i := 0; i < s.NumPhases(); i++ {
		p := s.Phase(i)
		if p.Start != cursor {
			t.Fatalf("phase %s starts at %v, previous ended at %v", p.Name, p.Start, cursor)
		}
		at := p.Start
		for k := p.First; k < p.First+p.Len; k++ {
			seg := s.Segment(k)
			if seg.Start != at {
				t.Fatalf("segment gap in %s: %v != %v", p.Name, seg.Start, at)
			}
			if seg.Dur() <= 0 {
				t.Fatalf("empty segment survived: %+v", seg)
			}
			at = seg.End
		}
		if at != p.End {
			t.Fatalf("phase %s segments end at %v, phase ends at %v", p.Name, at, p.End)
		}
		cursor = p.End
	}
	if cursor != s.End {
		t.Fatalf("phases end at %v, span ends at %v", cursor, s.End)
	}
}

func TestSpanCoalescesAndDropsZeroLength(t *testing.T) {
	tr := NewTracer()
	s := tr.Start(us(0))
	s.BeginPhase(us(10), "service", CatService)
	// A burst of same-instant transitions must leave no trace.
	s.Transition(us(20), CatPreemptWait)
	s.Transition(us(20), CatKernel)
	s.Transition(us(20), CatService)
	// Returning to the running category coalesces with the prior segment.
	s.Transition(us(30), CatService)
	s.Finish(us(40))

	if err := s.ConservationError(); err != 0 {
		t.Fatalf("conservation error = %v", err)
	}
	if n := s.SegmentCount(); n != 2 {
		t.Fatalf("segment count = %d, want 2 (queue-wait + one coalesced service)", n)
	}
	svc := spanPhases(s)[1].segments
	if len(svc) != 1 || svc[0].Cat != CatService || svc[0].Dur() != us(30) {
		t.Fatalf("service phase = %+v, want one 30µs service segment", svc)
	}
}

func TestSpanFinishedIsSealed(t *testing.T) {
	tr := NewTracer()
	s := tr.Start(us(5))
	s.Finish(us(15))
	before := s.Totals()
	s.Transition(us(25), CatService)
	s.BeginPhase(us(25), "late", CatService)
	s.Finish(us(30))
	if s.End != us(15) || s.Totals() != before || s.NumPhases() != 1 {
		t.Fatal("mutation after Finish changed the span")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start(us(1)) // nil tracer mints nil span
	if s != nil || tr.Open() != 0 || tr.Finished() != nil {
		t.Fatal("nil tracer must be inert")
	}
	s.Transition(us(2), CatService) // nil span: all hooks are no-ops
	s.BeginPhase(us(2), "x", CatService)
	s.Finish(us(3))
}

func TestTracerAccounting(t *testing.T) {
	tr := NewTracer()
	a := tr.Start(us(1))
	b := tr.Start(us(2))
	if a.ID == b.ID {
		t.Fatal("span IDs must be unique")
	}
	if tr.Open() != 2 {
		t.Fatalf("open = %d, want 2", tr.Open())
	}
	b.Finish(us(9))
	if tr.Open() != 1 || len(tr.Finished()) != 1 || tr.Finished()[0] != b {
		t.Fatal("finish accounting wrong")
	}
}

// TestSpanSize pins the span at 144 bytes with the rig's request shape
// (two phases, four segments) inline. A field that makes it grow fails
// here.
func TestSpanSize(t *testing.T) {
	if got := unsafe.Sizeof(Span{}); got != 144 {
		t.Fatalf("unsafe.Sizeof(Span{}) = %d, want 144", got)
	}
}

// resetFinished empties the tracer's finished list and keeps its first
// chunk, so a loop that resets after each span measures only the span.
func resetFinished(tr *Tracer) {
	if len(tr.done) > 0 {
		tr.done = tr.done[:1]
		tr.done[0] = tr.done[0][:0]
	}
}

// The rig's request shape fits the span's inline room and spans are
// minted from the tracer's slabs: once the slabs are full size, a
// lifecycle allocates one slab per maxSlab spans and nothing else.
func TestSpanLifecycleAllocatesPerSlab(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 4*maxSlab; i++ {
		lifecycle(tr, us(1)) // grow the slabs and the finished list
	}
	const spans = 8 * maxSlab
	at := us(1000)
	// The count is process-wide, so an allocation on another goroutine
	// (the collector, the race runtime) can add to it but never take
	// from it: keep the least of three measurements.
	allocs := math.Inf(1)
	for try := 0; try < 3; try++ {
		allocs = min(allocs, testing.AllocsPerRun(1, func() {
			for i := 0; i < spans; i++ {
				resetFinished(tr)
				s := tr.Start(at)
				s.BeginPhase(at, "service", CatKernel)
				s.Transition(at+us(2), CatService)
				s.Transition(at+us(30), CatPreemptWait)
				s.Transition(at+us(50), CatService)
				s.Finish(at + us(70))
			}
		}))
	}
	if allocs > spans/maxSlab {
		t.Fatalf("%d span lifecycles = %v allocations, want at most %d (one slab per %d spans)",
			spans, allocs, spans/maxSlab, maxSlab)
	}
}

// The finished list grows chunk by chunk and Finished joins the chunks
// in completion order; a list handed out earlier keeps its spans while
// later ones finish.
func TestFinishedChunksKeepCompletionOrder(t *testing.T) {
	tr := NewTracer()
	const n = 2*doneChunk + 3
	open := make([]*Span, n)
	for i := range open {
		open[i] = tr.Start(us(int64(i)))
	}
	var want []*Span
	var early []*Span
	for i := n - 1; i >= 0; i-- { // finish in reverse mint order
		open[i].Finish(us(int64(n + i)))
		want = append(want, open[i])
		if i == n-doneChunk-1 {
			early = tr.Finished()
		}
	}
	if len(tr.done) != 3 {
		t.Fatalf("finished list holds %d chunks, want 3", len(tr.done))
	}
	for pass := 0; pass < 2; pass++ { // the second read finds one chunk
		got := tr.Finished()
		if len(got) != n {
			t.Fatalf("read %d: Finished() = %d spans, want %d", pass, len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("read %d: span %d is ID %d, want ID %d", pass, i, got[i].ID, want[i].ID)
			}
		}
	}
	if len(early) != doneChunk+1 {
		t.Fatalf("early read = %d spans, want %d", len(early), doneChunk+1)
	}
	for i := range early {
		if early[i] != want[i] {
			t.Fatalf("early read changed at %d", i)
		}
	}
	// Finishing after a read starts a new chunk, leaving the read intact.
	late := tr.Start(us(1))
	late.Finish(us(2))
	if got := tr.Finished(); len(got) != n+1 || got[n] != late {
		t.Fatal("span finished after a read is missing from Finished()")
	}
}

// A closed phase keeps its segments: the next phase's segments follow
// them and do not change them.
func TestPhaseSegmentsDoNotAlias(t *testing.T) {
	tr := NewTracer()
	s := tr.Start(us(0))
	s.Transition(us(10), CatRunqWait)
	s.BeginPhase(us(20), "service", CatService)
	queue := spanPhases(s)[0].segments
	s.Transition(us(30), CatPreemptWait)
	s.Finish(us(40))
	phases := spanPhases(s)
	if got := phases[0].segments; !slices.Equal(got, queue) {
		t.Fatalf("queue segments changed to %+v after the service phase recorded; was %+v", got, queue)
	}
	if len(queue) != 2 || len(phases[1].segments) != 2 {
		t.Fatalf("segments per phase = %d, %d; want 2, 2", len(queue), len(phases[1].segments))
	}
	if p := s.Phase(1); p.First != 2 || p.Len != 2 {
		t.Fatalf("service phase holds segments %d..%d, want 2..3", p.First, p.First+p.Len-1)
	}
	if err := s.ConservationError(); err != 0 {
		t.Fatalf("conservation error = %v", err)
	}
}

// skewLastSegment moves s's last segment end by d behind the API's
// back, which breaks conservation by exactly -d.
func skewLastSegment(s *Span, d sim.Time) {
	k := s.SegmentCount() - 1
	if k < inlineSegs {
		s.segEnds[k] += d
	} else {
		s.spill.segs[k-inlineSegs].end += d
	}
}

// A span that outgrows the inline room (three phases, seven segments)
// spills to the heap and still tiles its wall exactly.
func TestSpanSpillKeepsConservation(t *testing.T) {
	tr := NewTracer()
	s := tr.Start(us(0))
	s.BeginPhase(us(10), "service", CatService)
	s.Transition(us(20), CatPreemptWait)
	s.Transition(us(30), CatService)
	s.Transition(us(40), CatSAWait)
	s.BeginPhase(us(50), "reply", CatService)
	s.Transition(us(60), CatKernel)
	s.Finish(us(75))
	if err := s.ConservationError(); err != 0 {
		t.Fatalf("conservation error = %v", err)
	}
	want := [][]Segment{
		{{us(0), us(10), CatQueueWait}},
		{{us(10), us(20), CatService}, {us(20), us(30), CatPreemptWait},
			{us(30), us(40), CatService}, {us(40), us(50), CatSAWait}},
		{{us(50), us(60), CatService}, {us(60), us(75), CatKernel}},
	}
	if s.NumPhases() != len(want) || s.SegmentCount() != 7 {
		t.Fatalf("phases = %d, segments = %d; want 3 and 7", s.NumPhases(), s.SegmentCount())
	}
	for i, p := range spanPhases(s) {
		if !slices.Equal(p.segments, want[i]) {
			t.Fatalf("phase %s segments = %+v, want %+v", p.name, p.segments, want[i])
		}
	}
}

// TestWriteChromeSpansAllocsConstant pins the span export to a
// constant number of allocations, the same for 100 and for 10,000
// requests: no event allocates.
func TestWriteChromeSpansAllocsConstant(t *testing.T) {
	sets := func(n int) []TrackSet {
		tr := NewTracer()
		for i := 0; i < n; i++ {
			lifecycle(tr, us(100*int64(i)+1))
		}
		return []TrackSet{{Name: "rig", Spans: tr.Finished()}}
	}
	small, large := sets(100), sets(10_000)
	allocs := func(s []TrackSet) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := WriteChromeSpans(io.Discard, s); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Errorf("WriteChromeSpans allocates %v times for 100 requests, %v for 10,000", a, b)
	}
}
