package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Chrome trace_viewer / Perfetto export. The trace.Log's rendered
// events are lowered into the Trace Event Format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// vCPU runstate transitions become B/E duration slices on a per-vCPU
// track, everything else becomes instant events, and metadata events
// name the tracks. The output loads directly in chrome://tracing and
// ui.perfetto.dev.

// chromeEvent is one entry of the traceEvents array. Timestamps are in
// microseconds, the unit the trace viewer expects.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Cat  string            `json:"cat,omitempty"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// simPid is the single synthetic process all tracks live under.
const simPid = 1

func usec(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// WriteChromeTrace converts the events of log that fall inside
// [from, to] (to == 0 means no upper bound) to Chrome trace JSON.
func WriteChromeTrace(w io.Writer, log *trace.Log, from, to sim.Time) error {
	var events []trace.Event
	for _, e := range log.Events() {
		if e.At < from || (to > 0 && e.At > to) {
			continue
		}
		events = append(events, e)
	}

	// Stable thread ids: one track per subject, ordered by name.
	subjects := map[string]int{}
	for _, e := range events {
		subjects[e.Subject] = 0
	}
	names := make([]string, 0, len(subjects))
	for s := range subjects {
		names = append(names, s)
	}
	sort.Strings(names)
	for i, s := range names {
		subjects[s] = i + 1
	}

	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: simPid,
		Args: map[string]string{"name": "irs-sim"},
	})
	for _, s := range names {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: simPid, Tid: subjects[s],
			Args: map[string]string{"name": s},
		})
	}

	// open tracks which vCPU subjects currently have a B slice pending.
	open := map[string]string{}
	end := to
	for _, e := range events {
		if end < e.At {
			end = e.At
		}
		tid := subjects[e.Subject]
		switch e.Kind {
		case trace.KindVCPUState:
			prev, next, ok := splitTransition(e.Detail)
			if !ok {
				out.TraceEvents = append(out.TraceEvents, instant(e, tid))
				continue
			}
			if name, pending := open[e.Subject]; pending && name == prev {
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: prev, Ph: "E", Ts: usec(e.At), Pid: simPid, Tid: tid, Cat: "vcpu",
				})
				delete(open, e.Subject)
			}
			// Only non-idle states get slices; "blocked" gaps read as
			// idle track space, which is what a scheduler timeline wants.
			if next == "running" || next == "runnable" {
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: next, Ph: "B", Ts: usec(e.At), Pid: simPid, Tid: tid, Cat: "vcpu",
				})
				open[e.Subject] = next
			}
		default:
			out.TraceEvents = append(out.TraceEvents, instant(e, tid))
		}
	}
	// Close any slice still open so B/E pairs balance at the window edge.
	for _, s := range names {
		if name, pending := open[s]; pending {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: name, Ph: "E", Ts: usec(end), Pid: simPid, Tid: subjects[s], Cat: "vcpu",
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// instant renders a trace event as an instant ("i") marker.
func instant(e trace.Event, tid int) chromeEvent {
	return chromeEvent{
		Name: e.Kind.String(), Ph: "i", Ts: usec(e.At), Pid: simPid, Tid: tid,
		Cat: e.Kind.String(), S: "t",
		Args: map[string]string{"subject": e.Subject, "detail": e.Detail},
	}
}

// splitTransition parses a "from -> to" runstate detail.
func splitTransition(detail string) (prev, next string, ok bool) {
	i := strings.Index(detail, " -> ")
	if i < 0 {
		return "", "", false
	}
	return detail[:i], detail[i+4:], true
}
