package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Chrome trace_viewer / Perfetto export, in the Trace Event Format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// ChromeEvent and ChromeTrace are the one emitter every trace export
// shares (runstate timelines here, request spans in span,
// decisions in decision); each exporter keeps only its own mapping
// onto events. The output loads directly in chrome://tracing and
// ui.perfetto.dev.

// Text is what an event's name and argument values may be: a string,
// or bytes an exporter assembled in a reused buffer, so a name built
// from parts (a kind and a subject, "req " and an id) costs no
// allocation.
type Text interface{ ~string | ~[]byte }

// Event is one entry of the traceEvents array. Ts is virtual time,
// written in microseconds, the unit the trace viewer expects. Cat, S
// and Args are omitted from the output when empty.
type Event[T Text] struct {
	Name T
	Ph   string
	Ts   sim.Time
	Pid  int
	Tid  int
	Cat  string
	S    string
	// Args is written as one object with its keys sorted and a
	// repeated key's last entry kept (see NextArg). Keys that already
	// strictly ascend are written in one pass; any other order takes
	// NextArg's quadratic walk, so exporters list arguments by key.
	Args []KeyVal[T]
}

// ChromeEvent is an event whose name and argument values are strings.
type ChromeEvent = Event[string]

// ProcessName is the metadata event naming process pid's track group.
func ProcessName(pid int, name string) ChromeEvent {
	return ChromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: []Arg{{"name", name}}}
}

// ThreadName is the metadata event naming thread track tid of pid.
func ThreadName(pid, tid int, name string) ChromeEvent {
	return ChromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: []Arg{{"name", name}}}
}

// ChromeTrace streams one Chrome trace JSON document, event by event,
// so an export never holds its whole event list in memory. The bytes
// are encoding/json's rendering of
// {"traceEvents":[...],"displayTimeUnit":"ms"} with each event a
// struct of the fields above in order, Ts a float64 of microseconds
// and Args a map[string]string, HTML escaping included.
type ChromeTrace struct {
	w   *bufio.Writer
	buf []byte // one encoded event, reused
	sep byte
	err error
}

// NewChromeTrace starts a Chrome trace document on w; Close ends it.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	t := &ChromeTrace{w: bufio.NewWriter(w), sep: '['}
	t.w.WriteString(`{"traceEvents":`)
	return t
}

// Emit appends one event to the document.
func (t *ChromeTrace) Emit(e ChromeEvent) { emit(t, e) }

// EmitBytes appends one event whose name and argument values are
// bytes; they are copied before EmitBytes returns, so the caller may
// reuse their buffer for the next event.
func (t *ChromeTrace) EmitBytes(e Event[[]byte]) { emit(t, e) }

func emit[T Text](t *ChromeTrace, e Event[T]) {
	if t.err != nil {
		return
	}
	b := append(t.buf[:0], t.sep)
	t.sep = ','
	b = append(b, `{"name":`...)
	b = AppendJSONString(b, e.Name)
	b = append(b, `,"ph":`...)
	b = AppendJSONString(b, e.Ph)
	b = append(b, `,"ts":`...)
	b = appendUsec(b, e.Ts)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(e.Pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.Tid), 10)
	if e.Cat != "" {
		b = append(b, `,"cat":`...)
		b = AppendJSONString(b, e.Cat)
	}
	if e.S != "" {
		b = append(b, `,"s":`...)
		b = AppendJSONString(b, e.S)
	}
	if len(e.Args) > 0 {
		b = append(b, `,"args":`...)
		sep := byte('{')
		asc := ascending(e.Args)
		i := 0
		if !asc {
			i = NextArg(e.Args, -1)
		}
		for i >= 0 && i < len(e.Args) {
			b = append(b, sep)
			sep = ','
			b = AppendJSONString(b, e.Args[i].Key)
			b = append(b, ':')
			b = AppendJSONString(b, e.Args[i].Val)
			if asc {
				i++
			} else {
				i = NextArg(e.Args, i)
			}
		}
		b = append(b, '}')
	}
	t.buf = append(b, '}')
	_, t.err = t.w.Write(t.buf)
}

// ascending reports whether the argument keys strictly ascend, the
// order NextArg would visit them in.
func ascending[T Text](args []KeyVal[T]) bool {
	for i := 1; i < len(args); i++ {
		if args[i-1].Key >= args[i].Key {
			return false
		}
	}
	return true
}

// exactUsec bounds the times appendUsec writes with integer
// arithmetic: below it, float64(t)/1e3 is the nearest double to the
// exact decimal t/1000, so the shortest decimal that round-trips it
// is that decimal itself.
const exactUsec = 1 << 50

// appendUsec appends virtual time t as a JSON number of microseconds,
// byte for byte as AppendJSONFloat(float64(t)/1e3) writes it: the
// whole microseconds, then up to three fractional digits with
// trailing zeros trimmed.
func appendUsec(b []byte, t sim.Time) []byte {
	if t <= -exactUsec || t >= exactUsec {
		b, _ = AppendJSONFloat(b, float64(t)/1e3) // finite: cannot fail
		return b
	}
	if t < 0 {
		b = append(b, '-')
		t = -t
	}
	b = strconv.AppendInt(b, int64(t/1000), 10)
	frac := int(t % 1000)
	if frac == 0 {
		return b
	}
	digits := [3]byte{byte('0' + frac/100), byte('0' + frac/10%10), byte('0' + frac%10)}
	n := 3
	for digits[n-1] == '0' {
		n--
	}
	b = append(b, '.')
	return append(b, digits[:n]...)
}

// Close ends and flushes the document, returning the first error.
func (t *ChromeTrace) Close() error {
	if t.err != nil {
		return t.err
	}
	if t.sep == '[' {
		t.w.WriteByte('[')
	}
	t.w.WriteString("],\"displayTimeUnit\":\"ms\"}\n")
	return t.w.Flush()
}

// simPid is the single synthetic process all runstate tracks live under.
const simPid = 1

// WriteChromeTrace converts the records of log that fall inside
// [from, to] (to == 0 means no upper bound) to Chrome trace JSON.
// Runstate transitions become B/E duration slices on a per-subject
// track; every other record, blackouts included, becomes an instant
// event carrying its rendered detail.
func WriteChromeTrace(w io.Writer, log *trace.Log, from, to sim.Time) error {
	entries := log.Window(from, to)

	// Stable thread ids: one track per subject, ordered by name.
	tids := map[string]int{}
	for _, e := range entries {
		tids[e.Subject()] = 0
	}
	names := make([]string, 0, len(tids))
	for s := range tids {
		names = append(names, s)
	}
	sort.Strings(names)
	out := NewChromeTrace(w)
	out.Emit(ProcessName(simPid, "irs-sim"))
	for i, s := range names {
		tids[s] = i + 1
		out.Emit(ThreadName(simPid, i+1, s))
	}

	// open tracks which subjects currently have a B slice pending.
	open := map[string]string{}
	end := to
	for _, e := range entries {
		at, subject := e.At(), e.Subject()
		end = max(end, at)
		tid := tids[subject]
		prev, next, ok := e.Transition()
		if !ok {
			ev := e.Event()
			out.Emit(ChromeEvent{
				Name: ev.Kind.String(), Ph: "i", Ts: at, Pid: simPid, Tid: tid,
				Cat: ev.Kind.String(), S: "t",
				Args: []Arg{{"subject", subject}, {"detail", ev.Detail}},
			})
			continue
		}
		if name, pending := open[subject]; pending && name == prev {
			out.Emit(ChromeEvent{Name: prev, Ph: "E", Ts: at, Pid: simPid, Tid: tid, Cat: "vcpu"})
			delete(open, subject)
		}
		// Only non-idle states get slices; "blocked" gaps read as
		// idle track space, which is what a scheduler timeline wants.
		if next == "running" || next == "runnable" {
			out.Emit(ChromeEvent{Name: next, Ph: "B", Ts: at, Pid: simPid, Tid: tid, Cat: "vcpu"})
			open[subject] = next
		}
	}
	// Close any slice still open so B/E pairs balance at the window edge.
	for _, s := range names {
		if name, pending := open[s]; pending {
			out.Emit(ChromeEvent{Name: name, Ph: "E", Ts: end, Pid: simPid, Tid: tids[s], Cat: "vcpu"})
		}
	}
	return out.Close()
}
