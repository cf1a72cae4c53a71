// Package span implements causal, hierarchical request tracing for the
// simulator: a span is minted when a request enters the system (the
// cluster router or an open-loop arrival source), travels with the
// request through VM queueing, guest task dispatch, hypervisor vCPU
// runstates, and cluster live migration, and ends when the request is
// served. Each completed span carries a tree of timed, categorized
// segments — the request's life tiled into non-overlapping intervals,
// each blamed on one mechanism (service, runqueue wait, vCPU
// preemption, LHP spin, the SA handshake, migration downtime, ...).
//
// Conservation holds by construction: Transition closes the current
// segment under the current category and opens the next one at the
// same instant, so the segments of a finished span always sum to its
// wall latency exactly. The blame analyzer (blame.go) builds on that
// to answer "where did the p99 go" quantitatively.
//
// Tracing is pay-as-you-go: layers carry a nil-able *Span and check it
// before every hook, so an untraced run takes only dead nil-checks.
package span

import (
	"fmt"

	"repro/internal/sim"
)

// Category names the mechanism an interval of a request's life is
// blamed on. The decision function lives where both the guest task and
// the backing vCPU are visible (guest.Kernel); this package only
// defines the taxonomy.
type Category int

const (
	// CatService is on-CPU execution of the request's own work.
	CatService Category = iota
	// CatKernel is guest-kernel overhead charged while the request's
	// task is current: IRQ handling, context-switch cost, softirq and
	// SA-handler bottom halves.
	CatKernel
	// CatQueueWait is time in a server or router queue before any
	// worker thread picks the request up.
	CatQueueWait
	// CatRunqWait is time ready on a guest runqueue whose vCPU is
	// actually executing — ordinary CFS queueing.
	CatRunqWait
	// CatPreemptWait is time lost to hypervisor preemption: the
	// request's vCPU is runnable-but-not-running (steal), whether the
	// task was current or queued on it.
	CatPreemptWait
	// CatSAWait is the scheduler-activation handshake window: from
	// VIRQ_SA_UPCALL send until the guest's sched_op acknowledgement.
	CatSAWait
	// CatLHPSpin is spinning on a lock whose holder is not making
	// progress (holder preempted at guest or hypervisor level) — the
	// paper's lock-holder-preemption symptom.
	CatLHPSpin
	// CatSpin is any other busy-wait (plain contention, LWP spin).
	CatSpin
	// CatBlocked is sleeping on a contended lock or condition after the
	// adaptive-spin budget ran out.
	CatBlocked
	// CatTaskMigr is time in the IRS migrator's hands (descheduled from
	// a preempted vCPU, waiting to land elsewhere).
	CatTaskMigr
	// CatVMMigr is cluster live-migration downtime: the request was
	// queued on a VM that froze for switchover and carried it across.
	CatVMMigr
	// CatOther is the defensive bucket; it should stay empty.
	CatOther

	// NumCategories sizes per-category arrays.
	NumCategories = int(CatOther) + 1
)

var categoryNames = [NumCategories]string{
	"service", "kernel", "queue-wait", "runq-wait", "preempt-wait",
	"sa-wait", "lhp-spin", "spin", "blocked", "task-migr", "vm-migr",
	"other",
}

func (c Category) String() string {
	if c < 0 || int(c) >= NumCategories {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Segment is one leaf interval of a span: [Start, End) blamed on Cat.
type Segment struct {
	Start, End sim.Time
	Cat        Category
}

// Dur returns the segment length.
func (s Segment) Dur() sim.Time { return s.End - s.Start }

// Phase is one coarse stage of a request's life (e.g. "queue" before a
// worker binds it, "service" afterwards) holding the leaf segments that
// tile it. Phases are the middle level of the span tree.
type Phase struct {
	Name       string
	Start, End sim.Time
	Segments   []Segment
}

// Totals is per-category accumulated time, indexed by Category.
type Totals [NumCategories]sim.Time

// Sum returns the total across all categories.
func (t Totals) Sum() sim.Time {
	var s sim.Time
	for _, v := range t {
		s += v
	}
	return s
}

// Add folds o into t.
func (t *Totals) Add(o Totals) {
	for i, v := range o {
		t[i] += v
	}
}

// Span is one request's causal trace: a root interval subdivided into
// phases, each subdivided into categorized segments. All mutation
// happens at simulation time through Transition/BeginPhase/Finish.
//
// A span is one allocation: Phases starts on the inline phases array
// and every phase carves its Segments from the inline segs array, the
// next phase taking the room the previous one left. A span that
// outgrows either spills to the heap the way append does. Because
// Phases and Segments may point into the span itself, a Span must not
// be copied by value: a copy's slices would still alias the original.
// Pass *Span.
type Span struct {
	ID         int64
	Start, End sim.Time // End is 0 while the span is open
	Phases     []Phase

	cur      Category
	curSince sim.Time
	tracer   *Tracer

	// Inline room sized to the measured request shape: every request
	// of the outage rig has two phases (queue, service) and about 95%
	// have at most four segments.
	phases [2]Phase
	segs   [4]Segment
}

// Wall returns the end-to-end latency of a finished span.
func (s *Span) Wall() sim.Time { return s.End - s.Start }

// Finished reports whether Finish has run.
func (s *Span) Finished() bool { return s.End != 0 }

// Category returns the category currently accruing.
func (s *Span) Category() Category { return s.cur }

// phase returns the open phase.
func (s *Span) phase() *Phase { return &s.Phases[len(s.Phases)-1] }

// closeSegment seals the accruing interval [curSince, now) under the
// current category, coalescing with the previous segment when the
// category repeats. Zero-length intervals vanish, so a flurry of
// same-instant transitions costs nothing.
func (s *Span) closeSegment(now sim.Time) {
	if now <= s.curSince {
		return
	}
	p := s.phase()
	if n := len(p.Segments); n > 0 && p.Segments[n-1].Cat == s.cur && p.Segments[n-1].End == s.curSince {
		p.Segments[n-1].End = now
	} else {
		p.Segments = append(p.Segments, Segment{Start: s.curSince, End: now, Cat: s.cur})
	}
	s.curSince = now
}

// Transition moves the span to category c at time now, closing the
// interval accrued under the previous category. Calling it with the
// current category is a cheap no-op; calling it on a finished span is
// ignored (the request already left the system).
func (s *Span) Transition(now sim.Time, c Category) {
	if s == nil || s.Finished() {
		return
	}
	if c == s.cur {
		return
	}
	s.closeSegment(now)
	s.cur = c
}

// BeginPhase closes the open phase and starts a new one named name,
// continuing in category c.
func (s *Span) BeginPhase(now sim.Time, name string, c Category) {
	if s == nil || s.Finished() {
		return
	}
	s.closeSegment(now)
	p := s.phase()
	p.End = now
	// The new phase takes the segment room the closing one left. The
	// closing phase is capped at its length, so the two never share a
	// slot: an append to the closed phase copies instead of writing
	// over the new phase's segments.
	n := len(p.Segments)
	rest := p.Segments[n:]
	p.Segments = p.Segments[:n:n]
	s.Phases = append(s.Phases, Phase{Name: name, Start: now, Segments: rest})
	s.cur = c
}

// Finish seals the span at now and hands it to its tracer.
func (s *Span) Finish(now sim.Time) {
	if s == nil || s.Finished() {
		return
	}
	s.closeSegment(now)
	s.phase().End = now
	s.End = now
	if s.End == 0 {
		// A request served at t=0 would read as still-open; nudge the
		// sentinel (cannot happen with a nonzero arrival process, but
		// keep Finished() honest).
		s.End = 1
	}
	if s.tracer != nil {
		s.tracer.finish(s)
	}
}

// Totals sums the span's segments per category.
func (s *Span) Totals() Totals {
	var t Totals
	for i := range s.Phases {
		for _, seg := range s.Phases[i].Segments {
			t[seg.Cat] += seg.Dur()
		}
	}
	return t
}

// SegmentCount returns the number of leaf segments.
func (s *Span) SegmentCount() int {
	n := 0
	for i := range s.Phases {
		n += len(s.Phases[i].Segments)
	}
	return n
}

// ConservationError returns wall latency minus the segment sum. By
// construction it is 0 for every finished span; the blame analyzer and
// the tests enforce that.
func (s *Span) ConservationError() sim.Time {
	return s.Wall() - s.Totals().Sum()
}

// Tracer mints spans and collects them as they finish. One tracer
// serves one run; it is not safe for concurrent use (the simulation is
// single-threaded by design). In the cluster a span is minted on the
// control shard and finishes on the host shard that serves its
// request, straight into this tracer: shards run one after another,
// so the finished list is in completion order within each host window
// and host order across them.
type Tracer struct {
	nextID   int64
	open     int
	finished []*Span

	// OnFinish, when non-nil, observes each span as it finishes (after
	// it is appended to the finished list). The watch flight recorder
	// subscribes here to keep its bounded ring of recent spans without
	// rescanning the full trace on every incident.
	OnFinish func(*Span)
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Start mints a span for a request that arrived at time arrival. The
// span opens in the "queue" phase accruing CatQueueWait — a request is
// nobody's task until a worker binds it.
func (tr *Tracer) Start(arrival sim.Time) *Span {
	if tr == nil {
		return nil
	}
	tr.nextID++
	tr.open++
	s := &Span{
		ID:       tr.nextID,
		Start:    arrival,
		cur:      CatQueueWait,
		curSince: arrival,
		tracer:   tr,
	}
	s.phases[0] = Phase{Name: "queue", Start: arrival, Segments: s.segs[:0]}
	s.Phases = s.phases[:1]
	return s
}

func (tr *Tracer) finish(s *Span) {
	tr.open--
	tr.finished = append(tr.finished, s)
	if tr.OnFinish != nil {
		tr.OnFinish(s)
	}
}

// Finished returns the collected spans in completion order. The slice
// is owned by the tracer; callers must not mutate it.
func (tr *Tracer) Finished() []*Span {
	if tr == nil {
		return nil
	}
	return tr.finished
}

// Open returns the number of minted spans that have not finished
// (requests still queued or in flight when the run ended).
func (tr *Tracer) Open() int {
	if tr == nil {
		return 0
	}
	return tr.open
}
