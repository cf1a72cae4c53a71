package span

import (
	"io"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Perfetto-compatible nested span export through obs's shared Chrome
// trace emitter (B/E duration slices + metadata events; loads directly
// in chrome://tracing and ui.perfetto.dev).
// Each request becomes one thread track; the span tree nests on it:
// an outer request slice, phase slices inside it, and categorized leaf
// segments inside those. Multiple TrackSets (e.g. one per scheduling
// strategy) render as separate processes in one file, so baseline and
// IRS timelines sit side by side.

func dur(t sim.Time) string { return time.Duration(t).String() }

// TrackSet is one named group of spans exported as its own Perfetto
// process.
type TrackSet struct {
	Name  string
	Spans []*Span
}

// WriteChromeSpans renders the track sets as Chrome trace JSON.
// Unfinished spans are skipped (they have no right edge to draw).
func WriteChromeSpans(w io.Writer, sets []TrackSet) error {
	out := obs.NewChromeTrace(w)
	slice := func(name, ph string, at sim.Time, pid, tid int, cat string, args []obs.Arg) {
		out.Emit(obs.ChromeEvent{Name: name, Ph: ph, Ts: obs.Usec(at), Pid: pid, Tid: tid, Cat: cat, Args: args})
	}
	for si, set := range sets {
		pid := si + 1
		out.Emit(obs.ProcessName(pid, set.Name))
		tid := 0
		for _, s := range set.Spans {
			if s == nil || !s.Finished() {
				continue
			}
			tid++
			req := "req " + strconv.FormatInt(s.ID, 10)
			wall := dur(s.Wall())
			out.Emit(obs.ThreadName(pid, tid, req+" (wall "+wall+")"))
			slice(req, "B", s.Start, pid, tid, "request", []obs.Arg{{Key: "wall", Val: wall}})
			for _, p := range s.Phases {
				slice(p.Name, "B", p.Start, pid, tid, "phase", nil)
				for _, seg := range p.Segments {
					cat := seg.Cat.String()
					slice(cat, "B", seg.Start, pid, tid, "segment", []obs.Arg{{Key: "dur", Val: dur(seg.Dur())}})
					slice(cat, "E", seg.End, pid, tid, "segment", nil)
				}
				slice(p.Name, "E", p.End, pid, tid, "phase", nil)
			}
			slice(req, "E", s.End, pid, tid, "request", nil)
		}
	}
	return out.Close()
}
