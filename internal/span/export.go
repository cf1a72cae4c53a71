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
// Request names, thread names and durations are rendered into one
// reused buffer, so the export allocates nothing per event.
func WriteChromeSpans(w io.Writer, sets []TrackSet) error {
	out := obs.NewChromeTrace(w)
	text := make([]byte, 0, 128)
	args := make([]obs.KeyVal[[]byte], 1)
	for si, set := range sets {
		pid := si + 1
		out.Emit(obs.ProcessName(pid, set.Name))
		tid := 0
		for _, s := range set.Spans {
			if s == nil || !s.Finished() {
				continue
			}
			tid++
			// One buffer holds "req N (wall D)": the request slice's
			// name, the thread name, and the wall argument are views.
			text = strconv.AppendInt(append(text[:0], "req "...), s.ID, 10)
			req := len(text)
			text = append(text, " (wall "...)
			wall := len(text)
			text = obs.AppendDuration(text, time.Duration(s.Wall()))
			wallEnd := len(text)
			text = append(text, ')')
			args[0] = obs.KeyVal[[]byte]{Key: "name", Val: text}
			out.EmitBytes(obs.Event[[]byte]{Name: threadName, Ph: "M", Pid: pid, Tid: tid, Args: args})
			args[0] = obs.KeyVal[[]byte]{Key: "wall", Val: text[wall:wallEnd]}
			out.EmitBytes(obs.Event[[]byte]{Name: text[:req], Ph: "B", Ts: s.Start, Pid: pid, Tid: tid, Cat: "request", Args: args})
			for pi := range s.Phases {
				p := &s.Phases[pi]
				out.Emit(obs.ChromeEvent{Name: p.Name, Ph: "B", Ts: p.Start, Pid: pid, Tid: tid, Cat: "phase"})
				for _, seg := range p.Segments {
					cat := seg.Cat.String()
					// The segment name follows the request's text.
					text = append(text[:wallEnd+1], cat...)
					name := len(text)
					text = obs.AppendDuration(text, time.Duration(seg.Dur()))
					args[0] = obs.KeyVal[[]byte]{Key: "dur", Val: text[name:]}
					out.EmitBytes(obs.Event[[]byte]{Name: text[wallEnd+1 : name], Ph: "B", Ts: seg.Start, Pid: pid, Tid: tid, Cat: "segment", Args: args})
					out.Emit(obs.ChromeEvent{Name: cat, Ph: "E", Ts: seg.End, Pid: pid, Tid: tid, Cat: "segment"})
				}
				out.Emit(obs.ChromeEvent{Name: p.Name, Ph: "E", Ts: p.End, Pid: pid, Tid: tid, Cat: "phase"})
			}
			out.EmitBytes(obs.Event[[]byte]{Name: text[:req], Ph: "E", Ts: s.End, Pid: pid, Tid: tid, Cat: "request"})
		}
	}
	return out.Close()
}

// threadName is the metadata event name of a request's thread track.
var threadName = []byte("thread_name")
