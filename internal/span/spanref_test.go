package span

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// refSpan is the span recorder that the compact Span replaced, kept as
// the differential oracle for FuzzSpanRecording, the way
// internal/sim's heapdiff_test.go keeps container/heap. It stores
// every segment's start and end and every phase's interval in plain
// slices; it shares nothing with Span but the Segment, Category and
// Totals types.
type refSpan struct {
	id         int64
	start, end sim.Time
	phases     []refPhase
	cur        Category
	curSince   sim.Time
	tracer     *refTracer
}

// refPhase is one phase of a refSpan with its segments.
type refPhase struct {
	name       string
	start, end sim.Time
	segments   []Segment
}

func (s *refSpan) wall() sim.Time   { return s.end - s.start }
func (s *refSpan) finished() bool   { return s.end != 0 }
func (s *refSpan) phase() *refPhase { return &s.phases[len(s.phases)-1] }

func (s *refSpan) closeSegment(now sim.Time) {
	if now <= s.curSince {
		return
	}
	p := s.phase()
	if n := len(p.segments); n > 0 && p.segments[n-1].Cat == s.cur && p.segments[n-1].End == s.curSince {
		p.segments[n-1].End = now
	} else {
		p.segments = append(p.segments, Segment{Start: s.curSince, End: now, Cat: s.cur})
	}
	s.curSince = now
}

func (s *refSpan) transition(now sim.Time, c Category) {
	if s.finished() || c == s.cur {
		return
	}
	s.closeSegment(now)
	s.cur = c
}

func (s *refSpan) beginPhase(now sim.Time, name string, c Category) {
	if s.finished() {
		return
	}
	s.closeSegment(now)
	s.phase().end = now
	s.phases = append(s.phases, refPhase{name: name, start: now})
	s.cur = c
}

func (s *refSpan) finish(now sim.Time) {
	if s.finished() {
		return
	}
	s.closeSegment(now)
	s.phase().end = now
	s.end = now
	if s.end == 0 {
		s.end = 1
	}
	s.tracer.open--
	s.tracer.finished = append(s.tracer.finished, s)
}

func (s *refSpan) totals() Totals {
	var t Totals
	for _, p := range s.phases {
		for _, seg := range p.segments {
			t[seg.Cat] += seg.Dur()
		}
	}
	return t
}

func (s *refSpan) segmentCount() int {
	n := 0
	for _, p := range s.phases {
		n += len(p.segments)
	}
	return n
}

// refTracer mints refSpans and collects them as they finish.
type refTracer struct {
	nextID   int64
	open     int
	finished []*refSpan
}

func (tr *refTracer) start(arrival sim.Time) *refSpan {
	tr.nextID++
	tr.open++
	return &refSpan{
		id:       tr.nextID,
		start:    arrival,
		cur:      CatQueueWait,
		curSince: arrival,
		tracer:   tr,
		phases:   []refPhase{{name: "queue", start: arrival}},
	}
}

// spanPhases reads s's phases and their segments through Span's
// accessors, into the reference's shape.
func spanPhases(s *Span) []refPhase {
	var out []refPhase
	for i := 0; i < s.NumPhases(); i++ {
		p := s.Phase(i)
		rp := refPhase{name: p.Name, start: p.Start, end: p.End}
		for k := p.First; k < p.First+p.Len; k++ {
			rp.segments = append(rp.segments, s.Segment(k))
		}
		out = append(out, rp)
	}
	return out
}

// diffSpan reports how s differs from the reference ref, or "".
func diffSpan(s *Span, ref *refSpan) string {
	switch {
	case s.ID != ref.id:
		return "ID"
	case s.Start != ref.start || s.End != ref.end:
		return "start/end"
	case s.Finished() != ref.finished():
		return "Finished"
	case s.Category() != ref.cur:
		return "Category"
	case s.Wall() != ref.wall():
		return "Wall"
	case s.Totals() != ref.totals():
		return "Totals"
	case s.ConservationError() != ref.wall()-ref.totals().Sum():
		return "ConservationError"
	case s.SegmentCount() != ref.segmentCount():
		return "SegmentCount"
	}
	got := spanPhases(s)
	if !slices.EqualFunc(got, ref.phases, func(a, b refPhase) bool {
		return a.name == b.name && a.start == b.start && a.end == b.end && slices.Equal(a.segments, b.segments)
	}) {
		return "phases"
	}
	return ""
}

// spanPhaseNames are the names a fuzzed BeginPhase picks from.
var spanPhaseNames = [4]string{"service", "reply", "", "migrate"}

// FuzzSpanRecording runs fuzzed request lifecycles through Span and
// through refSpan, the recorder it replaced, and requires the two to
// agree after every step: phases, segments, Totals, Wall,
// ConservationError and the tracers' accounting. Three bytes make one
// step: the op and its category, the span it targets (one of those
// started so far, so spans interleave the way concurrent requests
// do), and the clock advance, which may be zero. Ops start a span,
// move it to a category, begin a phase or finish it; ops on a
// finished span must change nothing. The corpus covers spills past
// the inline two phases and four segments, zero-length and
// same-category transitions, and ops after Finish.
func FuzzSpanRecording(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*512 {
			ops = ops[:3*512]
		}
		tr, ref := NewTracer(), &refTracer{}
		var spans []*Span
		var refs []*refSpan
		now := sim.Time(1)
		for i := 0; i+2 < len(ops); i += 3 {
			op, target, step := ops[i], ops[i+1], ops[i+2]
			now += sim.Time(step)
			cat := Category(int(op>>2) % NumCategories)
			if op&3 == 0 || len(spans) == 0 {
				spans = append(spans, tr.Start(now))
				refs = append(refs, ref.start(now))
				continue
			}
			j := int(target) % len(spans)
			s, r := spans[j], refs[j]
			switch op & 3 {
			case 1:
				s.Transition(now, cat)
				r.transition(now, cat)
			case 2:
				name := spanPhaseNames[int(op>>6)]
				s.BeginPhase(now, name, cat)
				r.beginPhase(now, name, cat)
			case 3:
				s.Finish(now)
				r.finish(now)
			}
			if d := diffSpan(s, r); d != "" {
				t.Fatalf("step %d: span %d differs from the reference in %s", i/3, j, d)
			}
		}
		for j := range spans {
			if d := diffSpan(spans[j], refs[j]); d != "" {
				t.Fatalf("span %d differs from the reference in %s", j, d)
			}
		}
		if tr.Open() != ref.open || len(tr.Finished()) != len(ref.finished) {
			t.Fatalf("tracer: open %d, finished %d; reference %d, %d",
				tr.Open(), len(tr.Finished()), ref.open, len(ref.finished))
		}
		for i, s := range tr.Finished() {
			if s.ID != ref.finished[i].id {
				t.Fatalf("finished[%d] is span %d, reference has %d", i, s.ID, ref.finished[i].id)
			}
		}
	})
}
