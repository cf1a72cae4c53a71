package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Chrome trace_viewer / Perfetto export, in the Trace Event Format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// ChromeTrace is the one emitter every trace export shares (runstate
// timelines here, request spans in span, decisions in decision); each
// exporter keeps only its own mapping onto events, as ChromeEvents or,
// on the hot exports, as Shapes encoded once. The output loads directly in chrome://tracing and
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
//
// Events are appended straight into one buffer, which goes to the
// writer in chunks of at least ChunkSize bytes. Every event, shaped
// (Put, PutQuoted) or not (Emit, EmitBytes), is written by put.
type ChromeTrace struct {
	w     io.Writer
	buf   []byte
	sep   byte
	err   error
	shape Shape // Emit's and EmitBytes' event shape, compiled per event
}

// NewChromeTrace starts a Chrome trace document on w; Close ends it.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	t := &ChromeTrace{w: w, buf: make([]byte, 0, 2*ChunkSize), sep: '['}
	t.buf = append(t.buf, `{"traceEvents":`...)
	return t
}

// ChunkSize is the least number of bytes the export writers hand their
// io.Writer at once, the document's last chunk aside.
const ChunkSize = 32 << 10

// FlushFull writes b to w once it holds ChunkSize bytes or more and
// returns it emptied; below that it returns b as it is.
func FlushFull(w io.Writer, b []byte) ([]byte, error) {
	if len(b) < ChunkSize {
		return b, nil
	}
	_, err := w.Write(b)
	return b[:0], err
}

// Emit appends one event to the document. Emit and EmitBytes stay out
// of line: inlined, a caller in another package would move e to the
// heap for its address, as it cannot see that emitEvent keeps none.
//
//go:noinline
func (t *ChromeTrace) Emit(e ChromeEvent) { emitEvent(t, &e) }

// EmitBytes appends one event whose name and argument values are
// bytes; they are copied before EmitBytes returns, so the caller may
// reuse their buffer for the next event.
//
//go:noinline
func (t *ChromeTrace) EmitBytes(e Event[[]byte]) { emitEvent(t, &e) }

// maxInlineArgs is how many argument values emitEvent gathers without
// allocating.
const maxInlineArgs = 8

// emitEvent compiles e's shape into the trace's scratch shape and puts
// the event through it. Arguments whose keys do not strictly ascend
// are taken in NextArg's order, so the shape's keys always do.
func emitEvent[T Text](t *ChromeTrace, e *Event[T]) {
	s := &t.shape
	s.begin(e.Ph, e.Cat, e.S)
	var inline [maxInlineArgs]T
	vals := inline[:0]
	if ascending(e.Args) {
		for i := range e.Args {
			s.key(e.Args[i].Key)
			vals = append(vals, e.Args[i].Val)
		}
	} else {
		for i := NextArg(e.Args, -1); i >= 0; i = NextArg(e.Args, i) {
			s.key(e.Args[i].Key)
			vals = append(vals, e.Args[i].Val)
		}
	}
	s.end()
	tr := MakeTrack(e.Pid, e.Tid)
	put(t, s, &tr, nil, e.Name, e.Ts, vals)
}

// Shape is the fixed part of a family of Chrome events, encoded once:
// the phase, the category and scope (each omitted when empty) and the
// argument keys. An event of a shape costs only its name, timestamp
// and argument values. Build one with NewShape and share it; a Shape
// is read-only once built.
type Shape struct {
	// enc is the head, `,"ph":"B","ts":`, then the pieces that follow
	// the track: the tail up to the first argument value (`,"cat":
	// "segment","args":{"dur":`), then what follows each value (`,
	// "key":` between values, `}}` after the last; a shape without
	// arguments has one piece, the tail with the closing `}`).
	enc  []byte
	head int   // enc[:head] is the head
	ends []int // piece i ends at enc[ends[i]]; one piece per key, then the last
}

// NewShape builds the shape of events with phase ph, category cat and
// scope s (either may be empty, and is then omitted) and argument
// keys, which must strictly ascend: that is the order encoding/json
// writes a map's keys in, and the order values are passed to Put.
func NewShape(ph, cat, s string, keys ...string) (*Shape, error) {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return nil, fmt.Errorf("obs: shape keys must strictly ascend: %q after %q", keys[i], keys[i-1])
		}
	}
	sh := &Shape{}
	sh.begin(ph, cat, s)
	for _, k := range keys {
		sh.key(k)
	}
	sh.end()
	return sh, nil
}

// MustShape is NewShape for shapes fixed in the source; it panics on
// keys that do not strictly ascend.
func MustShape(ph, cat, s string, keys ...string) *Shape {
	sh, err := NewShape(ph, cat, s, keys...)
	if err != nil {
		panic(err)
	}
	return sh
}

// begin starts compiling a shape into sh, reusing its storage.
func (sh *Shape) begin(ph, cat, s string) {
	b := append(sh.enc[:0], `,"ph":`...)
	b = AppendJSONString(b, ph)
	b = append(b, `,"ts":`...)
	sh.head = len(b)
	if cat != "" {
		b = AppendJSONString(append(b, `,"cat":`...), cat)
	}
	if s != "" {
		b = AppendJSONString(append(b, `,"s":`...), s)
	}
	sh.enc, sh.ends = b, sh.ends[:0]
}

// key adds the next argument key; the caller keeps keys ascending.
func (sh *Shape) key(k string) {
	if len(sh.ends) == 0 {
		sh.enc = append(sh.enc, `,"args":{`...)
	} else {
		sh.enc = append(sh.enc, ',')
	}
	sh.enc = append(AppendJSONString(sh.enc, k), ':')
	sh.ends = append(sh.ends, len(sh.enc))
}

// end closes the args object, if any, and the event.
func (sh *Shape) end() {
	if len(sh.ends) > 0 {
		sh.enc = append(sh.enc, '}')
	}
	sh.enc = append(sh.enc, '}')
	sh.ends = append(sh.ends, len(sh.enc))
}

// Track is an event's `,"pid":P,"tid":T`, encoded once for every event
// on that track.
type Track struct {
	n int
	b [2 * (len(`,"pid":`) + 20)]byte // 20: the longest int64
}

// MakeTrack encodes the track of thread tid in process pid.
func MakeTrack(pid, tid int) Track {
	var tr Track
	b := append(tr.b[:0], `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	tr.n = len(strconv.AppendInt(b, int64(tid), 10))
	return tr
}

// Put appends one event of shape s on track tr, with values for the
// shape's keys in their order. Name and values are escaped into the
// document before Put returns, so the caller may reuse their buffer.
func Put[T Text](t *ChromeTrace, s *Shape, tr *Track, name T, ts sim.Time, vals ...T) {
	put(t, s, tr, nil, name, ts, vals)
}

// PutQuoted is Put with a name that is already a JSON string literal,
// as AppendJSONString writes it, so a fixed name is escaped once.
func PutQuoted[T Text](t *ChromeTrace, s *Shape, tr *Track, quoted []byte, ts sim.Time, vals ...T) {
	var name T
	put(t, s, tr, quoted, name, ts, vals)
}

// put writes one event: the one function every event's bytes come
// from. quoted, when set, is the name's JSON literal and name is
// ignored.
func put[T Text](t *ChromeTrace, s *Shape, tr *Track, quoted []byte, name T, ts sim.Time, vals []T) {
	if t.err != nil {
		return
	}
	if len(vals) != len(s.ends)-1 {
		panic("obs: event has " + strconv.Itoa(len(vals)) + " argument values for a shape of " + strconv.Itoa(len(s.ends)-1) + " keys")
	}
	b := append(t.buf, t.sep)
	t.sep = ','
	b = append(b, `{"name":`...)
	if quoted != nil {
		b = append(b, quoted...)
	} else {
		b = AppendJSONString(b, name)
	}
	b = append(b, s.enc[:s.head]...)
	b = appendUsec(b, ts)
	b = append(b, tr.b[:tr.n]...)
	from := s.head
	for i, to := range s.ends {
		if i > 0 {
			b = AppendJSONString(b, vals[i-1])
		}
		b = append(b, s.enc[from:to]...)
		from = to
	}
	t.buf, t.err = FlushFull(t.w, b)
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

// digitPairs holds 00 to 99, two bytes each.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

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
	// Digits are written right to left into buf, then appended once.
	var buf [24]byte
	i := len(buf)
	u := uint64(t)
	if t < 0 {
		u = uint64(-t)
	}
	if frac := u % 1000; frac != 0 {
		n := 3
		for frac%10 == 0 {
			frac /= 10
			n--
		}
		for ; n > 0; n-- {
			i--
			buf[i] = byte('0' + frac%10)
			frac /= 10
		}
		i--
		buf[i] = '.'
	}
	u /= 1000
	for u >= 100 {
		q := u / 100
		r := (u - q*100) * 2
		i -= 2
		buf[i], buf[i+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[u*2], digitPairs[u*2+1]
	} else {
		i--
		buf[i] = byte('0' + u)
	}
	if t < 0 {
		i--
		buf[i] = '-'
	}
	return append(b, buf[i:]...)
}

// Close ends and flushes the document, returning the first error.
func (t *ChromeTrace) Close() error {
	if t.err != nil {
		return t.err
	}
	if t.sep == '[' {
		t.buf = append(t.buf, '[')
	}
	t.buf = append(t.buf, "],\"displayTimeUnit\":\"ms\"}\n"...)
	_, t.err = t.w.Write(t.buf)
	t.buf = t.buf[:0]
	return t.err
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
