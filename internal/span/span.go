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
// worker binds it, "service" afterwards), tiled by its leaf segments.
// Phases are the middle level of the span tree; Span.Phase returns
// them.
type Phase struct {
	Name       string
	Start, End sim.Time // End is 0 while the phase is open
	// The phase's segments are the span's segments First through
	// First+Len-1 (see Span.Segment).
	First, Len int
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

// Inline room sized to the measured request shape: every request of
// the outage rig has two phases (queue, service) and about 95% have
// at most four segments.
const (
	inlinePhases = 2
	inlineSegs   = 4
)

// Span is one request's causal trace: a root interval subdivided into
// phases, each subdivided into categorized segments. All mutation
// happens at simulation time through Transition/BeginPhase/Finish;
// readers walk the tree through NumPhases, Phase and Segment, which
// allocate nothing.
//
// The tree is stored compactly. Segments tile the span without gaps:
// each one starts where the one before it ended, the first at the
// span's start, and each phase starts where the one before it ended.
// So a span keeps only each segment's end and category and each
// phase's name, end and first segment, and derives every start on
// read. Two phases and four segments fit inline (144 bytes in all,
// pinned by TestSpanSize); a span that outgrows either keeps the rest
// in a spill record. A tracer mints its spans from slabs.
type Span struct {
	ID         int64
	Start, End sim.Time // End is 0 while the span is open

	tracer *Tracer
	spill  *spill

	names   [inlinePhases]string
	ends    [inlinePhases]sim.Time // phase ends
	segEnds [inlineSegs]sim.Time
	first1  int32 // the second phase's first segment
	nphases int32
	nsegs   int32
	cats    [inlineSegs]uint8
	cur     uint8 // the category accruing
}

// spill holds what does not fit inline: the phases from the third on
// and the segments from the fifth on.
type spill struct {
	phases []spillPhase
	segs   []spillSeg
}

type spillPhase struct {
	name  string
	end   sim.Time
	first int
}

type spillSeg struct {
	end sim.Time
	cat Category
}

// Wall returns the end-to-end latency of a finished span.
func (s *Span) Wall() sim.Time { return s.End - s.Start }

// Finished reports whether Finish has run.
func (s *Span) Finished() bool { return s.End != 0 }

// Category returns the category currently accruing.
func (s *Span) Category() Category { return Category(s.cur) }

// NumPhases returns the number of phases, the open one included.
func (s *Span) NumPhases() int { return int(s.nphases) }

// SegmentCount returns the number of leaf segments.
func (s *Span) SegmentCount() int { return int(s.nsegs) }

// Phase returns phase i, 0 <= i < NumPhases().
func (s *Span) Phase(i int) Phase {
	p := Phase{Start: s.Start, First: s.phaseFirst(i)}
	if i < inlinePhases {
		p.Name, p.End = s.names[i], s.ends[i]
	} else {
		sp := &s.spill.phases[i-inlinePhases]
		p.Name, p.End = sp.name, sp.end
	}
	if i > 0 {
		p.Start = s.phaseEnd(i - 1)
	}
	next := int(s.nsegs)
	if i+1 < int(s.nphases) {
		next = s.phaseFirst(i + 1)
	}
	p.Len = next - p.First
	return p
}

// Segment returns segment k, 0 <= k < SegmentCount(), counting across
// phases in time order.
func (s *Span) Segment(k int) Segment {
	end, cat := s.segment(k)
	seg := Segment{Start: s.Start, End: end, Cat: cat}
	if k > 0 {
		seg.Start, _ = s.segment(k - 1)
	}
	return seg
}

// segment returns segment k's end and category.
func (s *Span) segment(k int) (sim.Time, Category) {
	if k < inlineSegs {
		return s.segEnds[k], Category(s.cats[k])
	}
	sg := &s.spill.segs[k-inlineSegs]
	return sg.end, sg.cat
}

// phaseFirst returns phase i's first segment.
func (s *Span) phaseFirst(i int) int {
	switch {
	case i == 0:
		return 0
	case i == 1:
		return int(s.first1)
	}
	return s.spill.phases[i-inlinePhases].first
}

// phaseEnd returns phase i's end.
func (s *Span) phaseEnd(i int) sim.Time {
	if i < inlinePhases {
		return s.ends[i]
	}
	return s.spill.phases[i-inlinePhases].end
}

// endPhase sets the open phase's end.
func (s *Span) endPhase(now sim.Time) {
	if i := int(s.nphases) - 1; i < inlinePhases {
		s.ends[i] = now
	} else {
		s.spill.phases[i-inlinePhases].end = now
	}
}

// spilled returns the span's spill record, made on first use.
func (s *Span) spilled() *spill {
	if s.spill == nil {
		s.spill = &spill{}
	}
	return s.spill
}

// closeSegment seals the accruing interval under the current category
// at now: the interval runs from the last segment's end (the span's
// start before the first), and it coalesces with the open phase's last
// segment when the category repeats. Zero-length intervals vanish, so
// a flurry of same-instant transitions costs nothing.
func (s *Span) closeSegment(now sim.Time) {
	n := int(s.nsegs)
	since := s.Start
	if n > 0 {
		since, _ = s.segment(n - 1)
	}
	if now <= since {
		return
	}
	cur := Category(s.cur)
	if n > s.phaseFirst(int(s.nphases)-1) {
		if _, cat := s.segment(n - 1); cat == cur {
			if n <= inlineSegs {
				s.segEnds[n-1] = now
			} else {
				s.spill.segs[n-1-inlineSegs].end = now
			}
			return
		}
	}
	if n < inlineSegs {
		s.segEnds[n], s.cats[n] = now, uint8(cur)
	} else {
		sp := s.spilled()
		sp.segs = append(sp.segs, spillSeg{end: now, cat: cur})
	}
	s.nsegs++
}

// Transition moves the span to category c at time now, closing the
// interval accrued under the previous category. Calling it with the
// current category is a cheap no-op; calling it on a finished span is
// ignored (the request already left the system). c must be one of the
// defined categories.
func (s *Span) Transition(now sim.Time, c Category) {
	if s == nil || s.Finished() {
		return
	}
	if c == Category(s.cur) {
		return
	}
	s.closeSegment(now)
	s.cur = uint8(c)
}

// BeginPhase closes the open phase and starts a new one named name,
// continuing in category c.
func (s *Span) BeginPhase(now sim.Time, name string, c Category) {
	if s == nil || s.Finished() {
		return
	}
	s.closeSegment(now)
	s.endPhase(now)
	if i := int(s.nphases); i < inlinePhases {
		s.names[i], s.first1 = name, s.nsegs
	} else {
		sp := s.spilled()
		sp.phases = append(sp.phases, spillPhase{name: name, first: int(s.nsegs)})
	}
	s.nphases++
	s.cur = uint8(c)
}

// Finish seals the span at now and hands it to its tracer.
func (s *Span) Finish(now sim.Time) {
	if s == nil || s.Finished() {
		return
	}
	s.closeSegment(now)
	s.endPhase(now)
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
	at := s.Start
	for k := 0; k < min(int(s.nsegs), inlineSegs); k++ {
		t[s.cats[k]] += s.segEnds[k] - at
		at = s.segEnds[k]
	}
	if s.spill != nil {
		for _, sg := range s.spill.segs {
			t[sg.cat] += sg.end - at
			at = sg.end
		}
	}
	return t
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
//
// Spans are minted from slabs that start small and double up to
// maxSlab spans, so a run of many requests allocates one slab per
// maxSlab spans rather than one object per span. The finished list
// grows in fixed chunks of doneChunk spans, so it is never re-copied
// as it grows; Finished joins the chunks once when it is read.
type Tracer struct {
	nextID int64
	open   int
	slab   []Span    // the current slab's unminted spans
	done   [][]*Span // finished spans in completion order, chunk by chunk

	// OnFinish, when non-nil, observes each span as it finishes (after
	// it is appended to the finished list). The watch flight recorder
	// subscribes here to keep its bounded ring of recent spans without
	// rescanning the full trace on every incident.
	OnFinish func(*Span)
}

// Slab sizes, in spans: the first slab and the cap; and the finished
// list's chunk size.
const (
	minSlab   = 16
	maxSlab   = 1024
	doneChunk = 1024
)

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Start mints a span for a request that arrived at time arrival. The
// span opens in the "queue" phase accruing CatQueueWait — a request is
// nobody's task until a worker binds it.
func (tr *Tracer) Start(arrival sim.Time) *Span {
	if tr == nil {
		return nil
	}
	if len(tr.slab) == 0 {
		tr.slab = make([]Span, min(max(tr.nextID, minSlab), maxSlab))
	}
	s := &tr.slab[0]
	tr.slab = tr.slab[1:]
	tr.nextID++
	tr.open++
	s.ID, s.Start, s.tracer = tr.nextID, arrival, tr
	s.names[0], s.nphases, s.cur = "queue", 1, uint8(CatQueueWait)
	return s
}

func (tr *Tracer) finish(s *Span) {
	tr.open--
	last := len(tr.done) - 1
	if last < 0 || len(tr.done[last]) == cap(tr.done[last]) {
		tr.done = append(tr.done, make([]*Span, 0, doneChunk))
		last++
	}
	tr.done[last] = append(tr.done[last], s)
	if tr.OnFinish != nil {
		tr.OnFinish(s)
	}
}

// Finished returns the collected spans in completion order. The slice
// is owned by the tracer; callers must not mutate it. Reading joins the
// finished chunks into one full chunk, so a later finish starts a new
// chunk and never writes into a slice already handed out.
func (tr *Tracer) Finished() []*Span {
	if tr == nil || len(tr.done) == 0 {
		return nil
	}
	if len(tr.done) > 1 {
		n := 0
		for _, c := range tr.done {
			n += len(c)
		}
		all := make([]*Span, 0, n)
		for _, c := range tr.done {
			all = append(all, c...)
		}
		tr.done = append(tr.done[:0], all)
	}
	return tr.done[0]
}

// Open returns the number of minted spans that have not finished
// (requests still queued or in flight when the run ended).
func (tr *Tracer) Open() int {
	if tr == nil {
		return 0
	}
	return tr.open
}
