package span

import (
	"io"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Perfetto-compatible nested span export through obs's shared Chrome
// trace emitter (B/E duration slices + metadata events; loads directly
// in chrome://tracing and ui.perfetto.dev).
// Each request becomes one thread track; the span tree nests on it:
// an outer request slice, phase slices inside it, and categorized leaf
// segments inside those. Multiple TrackSets (e.g. one per scheduling
// strategy) render as separate processes in one file, so baseline and
// IRS timelines sit side by side.

// TrackSet is one named group of spans exported as its own Perfetto
// process.
type TrackSet struct {
	Name  string
	Spans []*Span
}

// WriteChromeSpans renders the track sets as Chrome trace JSON.
// Unfinished spans are skipped (they have no right edge to draw).
// Every event goes through one of the shapes below, on its request's
// track, encoded once; request names, thread names and durations are
// rendered into one reused buffer, so the export allocates nothing per
// event.
func WriteChromeSpans(w io.Writer, sets []TrackSet) error {
	out := obs.NewChromeTrace(w)
	text := make([]byte, 0, 128)
	for si, set := range sets {
		pid := si + 1
		out.Emit(obs.ProcessName(pid, set.Name))
		tid := 0
		for _, s := range set.Spans {
			if s == nil || !s.Finished() {
				continue
			}
			tid++
			tr := obs.MakeTrack(pid, tid)
			// One buffer holds `"req N"`, the request slices' name as a
			// JSON literal (digits need no escaping), then "req N (wall
			// D)", the thread name, with the wall argument a view.
			text = strconv.AppendInt(append(text[:0], `"req `...), s.ID, 10)
			text = append(text, '"')
			req := len(text)
			text = append(text, text[1:req-1]...)
			text = append(text, " (wall "...)
			wall := len(text)
			text = obs.AppendDuration(text, time.Duration(s.Wall()))
			wallEnd := len(text)
			text = append(text, ')')
			obs.PutQuoted(out, threadShape, &tr, quotedThreadName, 0, text[req:])
			obs.PutQuoted(out, requestBegin, &tr, text[:req], s.Start, text[wall:wallEnd])
			for pi := 0; pi < s.NumPhases(); pi++ {
				p := s.Phase(pi)
				obs.Put(out, phaseBegin, &tr, p.Name, p.Start)
				for k := p.First; k < p.First+p.Len; k++ {
					seg := s.Segment(k)
					// The duration follows the thread name.
					text = obs.AppendDuration(text[:wallEnd+1], time.Duration(seg.Dur()))
					cat := quotedCategory(seg.Cat)
					obs.PutQuoted(out, segmentBegin, &tr, cat, seg.Start, text[wallEnd+1:])
					obs.PutQuoted[[]byte](out, segmentEnd, &tr, cat, seg.End)
				}
				obs.Put(out, phaseEnd, &tr, p.Name, p.End)
			}
			obs.PutQuoted[[]byte](out, requestEnd, &tr, text[:req], s.End)
		}
	}
	return out.Close()
}

// The shapes of a span export's events: a request's thread-name
// metadata, then B and E slices of the request, its phases and their
// segments.
var (
	threadShape  = obs.MustShape("M", "", "", "name")
	requestBegin = obs.MustShape("B", "request", "", "wall")
	requestEnd   = obs.MustShape("E", "request", "")
	phaseBegin   = obs.MustShape("B", "phase", "")
	phaseEnd     = obs.MustShape("E", "phase", "")
	segmentBegin = obs.MustShape("B", "segment", "", "dur")
	segmentEnd   = obs.MustShape("E", "segment", "")
)

// quotedThreadName is the thread-name event's name as a JSON literal.
var quotedThreadName = obs.AppendJSONString(nil, "thread_name")

// quotedCategories holds each category's name as a JSON literal, the
// name of its segment slices.
var quotedCategories = func() (q [NumCategories][]byte) {
	for c := range q {
		q[c] = obs.AppendJSONString(nil, Category(c).String())
	}
	return q
}()

// quotedCategory returns c's name as a JSON literal.
func quotedCategory(c Category) []byte {
	if c >= 0 && int(c) < NumCategories {
		return quotedCategories[c]
	}
	return obs.AppendJSONString(nil, c.String())
}
