// Package trace records scheduling events from the hypervisor and
// guest kernels into a bounded in-memory ring of typed records, for
// debugging scenarios and for rendering execution timelines
// (irsreport -timeline). Tracing is optional: components record into a *Log
// only when one is attached, and a record's detail text is rendered
// only when the log is read.
package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Kind classifies a trace event.
type Kind int

const (
	// KindVCPUState is a hypervisor vCPU runstate transition.
	KindVCPUState Kind = iota + 1
	// KindSwitch is a pCPU context switch.
	KindSwitch
	// KindSA is a scheduler-activation event (sent/acked/expired).
	KindSA
	// KindTask is a guest task state transition.
	KindTask
	// KindMigrate is a guest task migration.
	KindMigrate
	// KindNote is a free-form annotation.
	KindNote
)

func (k Kind) String() string {
	switch k {
	case KindVCPUState:
		return "vcpu"
	case KindSwitch:
		return "switch"
	case KindSA:
		return "sa"
	case KindTask:
		return "task"
	case KindMigrate:
		return "migrate"
	case KindNote:
		return "note"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// kindNames maps the user-facing names accepted by ParseKinds.
var kindNames = map[string]Kind{
	"vcpu":    KindVCPUState,
	"switch":  KindSwitch,
	"sa":      KindSA,
	"task":    KindTask,
	"migrate": KindMigrate,
	"note":    KindNote,
}

// KindNames returns the valid kind names in display order.
func KindNames() []string {
	return []string{"vcpu", "switch", "sa", "task", "migrate", "note"}
}

// ParseKinds parses a comma-separated kind filter such as "sa,migrate".
// An empty string means no filter and returns nil. Unknown names are an
// error (naming the offender and the valid set) instead of silently
// matching nothing.
func ParseKinds(arg string) (map[Kind]bool, error) {
	if strings.TrimSpace(arg) == "" {
		return nil, nil
	}
	m := map[Kind]bool{}
	for _, part := range strings.Split(arg, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		k, ok := kindNames[name]
		if !ok {
			return nil, fmt.Errorf("trace: unknown event kind %q (valid: %s)",
				name, strings.Join(KindNames(), ", "))
		}
		m[k] = true
	}
	if len(m) == 0 {
		return nil, nil
	}
	return m, nil
}

// Event is one recorded occurrence, rendered for reading.
type Event struct {
	At      sim.Time
	Kind    Kind
	Subject string // vCPU/task/pCPU name
	Detail  string
}

func (e Event) String() string {
	return fmt.Sprintf("%12s %-8s %-12s %s", e.At, e.Kind, e.Subject, e.Detail)
}

// shape selects how a record's operands render into Event.Detail.
type shape uint8

const (
	shapeText       shape = iota // a
	shapeTransition              // "a -> b"
	shapeBlackout                // "blackout for n"
	shapeSwitch                  // "run a (b)"
	shapeAcked                   // "acked after n (a)"
	shapeBlocked                 // "blocked on cpun"
	shapeWoken                   // "woken on cpun"
	shapeMigrate                 // "cpun -> cpum"
)

// record is one retained event in typed form: the subject and name
// operands are strings the caller already holds (cached vCPU/pCPU/task
// names, constant state and priority names), so recording copies
// words and never formats.
type record struct {
	at      sim.Time
	subject string
	a, b    string // name operands
	n       int64  // duration (ns) or CPU operand
	m       int32  // second CPU operand
	kind    uint8  // Kind, narrowed: every declared kind fits
	shape   shape
}

// detail renders the record's operands as its Event.Detail text.
func (r *record) detail() string {
	switch r.shape {
	case shapeTransition:
		return r.a + " -> " + r.b
	case shapeBlackout:
		return "blackout for " + sim.Time(r.n).String()
	case shapeSwitch:
		return "run " + r.a + " (" + r.b + ")"
	case shapeAcked:
		return "acked after " + sim.Time(r.n).String() + " (" + r.a + ")"
	case shapeBlocked:
		return "blocked on cpu" + strconv.FormatInt(r.n, 10)
	case shapeWoken:
		return "woken on cpu" + strconv.FormatInt(r.n, 10)
	case shapeMigrate:
		return "cpu" + strconv.FormatInt(r.n, 10) + " -> cpu" + strconv.Itoa(int(r.m))
	}
	return r.a
}

func (r *record) event() Event {
	return Event{At: r.at, Kind: Kind(r.kind), Subject: r.subject, Detail: r.detail()}
}

// Log is a fixed-capacity ring of typed records: once full, each new
// record overwrites the oldest. Details are rendered only on read
// (Events, Tail, Filter, Dump), so recording never formats. Storage
// grows chunkLen records at a time up to the limit and is never
// copied, so a log allocates about what it retains and, once full,
// nothing at all. The zero value is unbounded; NewLog sets a limit up
// front.
type Log struct {
	limit   int
	chunks  [][]record // ring storage, slot p at chunks[p/chunkLen][p%chunkLen]
	n       int        // retained records
	head    int        // slot of the oldest record
	dropped uint64
}

// chunkLen is the storage growth step, in records.
const chunkLen = 256

// NewLog creates a log keeping at most limit events (0 = unbounded).
func NewLog(limit int) *Log {
	return &Log{limit: limit}
}

func (l *Log) slot(p int) *record { return &l.chunks[p/chunkLen][p%chunkLen] }

// push retains r, overwriting the oldest record once the ring is full.
func (l *Log) push(r record) {
	if l.limit <= 0 || l.n < l.limit {
		if l.n == len(l.chunks)*chunkLen {
			size := chunkLen
			if l.limit > 0 && l.limit-l.n < size {
				size = l.limit - l.n
			}
			l.chunks = append(l.chunks, make([]record, size))
		}
		*l.slot(l.n) = r
		l.n++
		return
	}
	*l.slot(l.head) = r
	l.head++
	if l.head == l.n {
		l.head = 0
	}
	l.dropped++
}

// Record retains an event whose detail is already a fixed string.
func (l *Log) Record(at sim.Time, kind Kind, subject, detail string) {
	l.push(record{at: at, kind: uint8(kind), subject: subject, a: detail})
}

// Transition records a vCPU runstate change: "from -> to".
func (l *Log) Transition(at sim.Time, vcpu, from, to string) {
	l.push(record{at: at, kind: uint8(KindVCPUState), shape: shapeTransition, subject: vcpu, a: from, b: to})
}

// Blackout records a vCPU pause: "blackout for dur".
func (l *Log) Blackout(at sim.Time, vcpu string, dur sim.Time) {
	l.push(record{at: at, kind: uint8(KindVCPUState), shape: shapeBlackout, subject: vcpu, n: int64(dur)})
}

// Switch records a pCPU context switch: "run vcpu (prio)".
func (l *Log) Switch(at sim.Time, pcpu, vcpu, prio string) {
	l.push(record{at: at, kind: uint8(KindSwitch), shape: shapeSwitch, subject: pcpu, a: vcpu, b: prio})
}

// SAAcked records a completed scheduler activation: "acked after delay
// (disposition)".
func (l *Log) SAAcked(at sim.Time, vcpu string, delay sim.Time, disposition string) {
	l.push(record{at: at, kind: uint8(KindSA), shape: shapeAcked, subject: vcpu, n: int64(delay), a: disposition})
}

// TaskBlocked records a guest task blocking: "blocked on cpuN".
func (l *Log) TaskBlocked(at sim.Time, task string, cpu int) {
	l.push(record{at: at, kind: uint8(KindTask), shape: shapeBlocked, subject: task, n: int64(cpu)})
}

// TaskWoken records a guest task wakeup: "woken on cpuN".
func (l *Log) TaskWoken(at sim.Time, task string, cpu int) {
	l.push(record{at: at, kind: uint8(KindTask), shape: shapeWoken, subject: task, n: int64(cpu)})
}

// Migrate records a guest task migration: "cpuFROM -> cpuTO".
func (l *Log) Migrate(at sim.Time, task string, from, to int) {
	l.push(record{at: at, kind: uint8(KindMigrate), shape: shapeMigrate, subject: task, n: int64(from), m: int32(to)})
}

// rec returns the i-th oldest retained record.
func (l *Log) rec(i int) *record {
	p := l.head + i
	if p >= l.n {
		p -= l.n
	}
	return l.slot(p)
}

// Events renders the retained events in order. The result is the
// caller's: later recording cannot reach it.
func (l *Log) Events() []Event { return l.Tail(l.n) }

// Tail renders the newest n retained events (all of them when fewer
// are retained), oldest first.
func (l *Log) Tail(n int) []Event {
	n = min(max(n, 0), l.n)
	out := make([]Event, n)
	for i, off := 0, l.n-n; i < n; i++ {
		out[i] = l.rec(off + i).event()
	}
	return out
}

// Dropped reports how many events were evicted.
func (l *Log) Dropped() uint64 { return l.dropped }

// Len returns the number of retained events.
func (l *Log) Len() int { return l.n }

// Filter returns events matching kind (and subject, when non-empty).
func (l *Log) Filter(kind Kind, subject string) []Event {
	var out []Event
	for i := 0; i < l.n; i++ {
		r := l.rec(i)
		if Kind(r.kind) != kind {
			continue
		}
		if subject != "" && r.subject != subject {
			continue
		}
		out = append(out, r.event())
	}
	return out
}

// Entry is a read-only view of one retained record, valid until the
// log records again. Exporters map it by shape (Transition) instead of
// parsing rendered detail text, and render text (Event) only for the
// records they emit as such.
type Entry struct{ r *record }

// At returns the record's virtual time.
func (e Entry) At() sim.Time { return e.r.at }

// Subject returns the vCPU, task or pCPU the record is about.
func (e Entry) Subject() string { return e.r.subject }

// Transition returns the operands of a runstate record made by
// Log.Transition; ok is false for every other record, including a
// Blackout or a Record whose text reads like a transition.
func (e Entry) Transition() (from, to string, ok bool) {
	if e.r.shape != shapeTransition {
		return "", "", false
	}
	return e.r.a, e.r.b, true
}

// Event renders the record, detail text included.
func (e Entry) Event() Event { return e.r.event() }

// Window returns the retained records inside [from, to] (to == 0
// means no upper bound), oldest first, without rendering any text.
func (l *Log) Window(from, to sim.Time) []Entry {
	var out []Entry
	for i := 0; i < l.n; i++ {
		r := l.rec(i)
		if r.at >= from && (to <= 0 || r.at <= to) {
			out = append(out, Entry{r})
		}
	}
	return out
}

// Dump writes the timeline of the window [from, to] (to == 0 means no
// upper bound): one line per retained event whose kind is in kinds
// (nil = every kind), then a closing line with the shown count, the
// evictions at capacity and the whole log's per-kind totals.
func (l *Log) Dump(w io.Writer, from, to sim.Time, kinds map[Kind]bool) error {
	shown := 0
	for _, e := range l.Window(from, to) {
		if kinds != nil && !kinds[Kind(e.r.kind)] {
			continue
		}
		if _, err := fmt.Fprintln(w, e.Event()); err != nil {
			return err
		}
		shown++
	}
	_, err := fmt.Fprintf(w, "\n%d events shown (window %v..%v, %d dropped at capacity); totals: %s\n",
		shown, from, to, l.dropped, l.Summary())
	return err
}

// Summary aggregates event counts by kind.
func (l *Log) Summary() string {
	var counts [KindNote + 1]int
	for i := 0; i < l.n; i++ {
		if k := Kind(l.rec(i).kind); k >= KindVCPUState && k <= KindNote {
			counts[k]++
		}
	}
	var b strings.Builder
	for k := KindVCPUState; k <= KindNote; k++ {
		if counts[k] > 0 {
			fmt.Fprintf(&b, "%s=%d ", k, counts[k])
		}
	}
	return strings.TrimSpace(b.String())
}
