package sim

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
)

// ShardedEngine is a conservative discrete-event coordinator: N
// independent Engines (shards) advance in lockstep through time windows
// bounded by a fixed lookahead — the known minimum latency of any
// cross-shard interaction. Within a window every shard's events are
// data-isolated, and the active shards run one after another in index
// order; at the window boundary (a barrier) all shards are parked at the
// same virtual time and cross-shard traffic is exchanged.
//
// Determinism is by construction, not by luck:
//
//   - Cross-shard events are posted with delay >= lookahead (Post), so
//     a message sent inside a window (T, T+W], W <= lookahead, is
//     delivered strictly after the window ends. Shards therefore never
//     observe each other mid-window, and the order in which they run
//     cannot change what any shard computes. Posting with a shorter
//     delay is a lookahead violation: it panics, or reports through
//     OnViolation and is clamped to the lookahead.
//   - Mail is inserted into the destination engines at each barrier,
//     walking the outboxes in shard order and each in post order. An
//     engine fires by (time, insertion seq), so mail fires in the
//     canonical order (delivery time, source shard, post order), and
//     the destination sequence numbers (and hence same-instant
//     tie-breaks) do not depend on the order in which the shards ran.
//   - Global synchronous work (control planes that legitimately read or
//     mutate many shards at one instant) runs as barrier tasks
//     (AtBarrier/EveryBarrier): windows truncate so a barrier lands
//     exactly at each task's due time, and the task executes while
//     every shard is parked at that time — exactly the semantics the
//     work had on a single shared engine.
//
// The zero value is not usable; call NewSharded.
type ShardedEngine struct {
	engines   []*Engine
	lookahead Time
	now       Time

	// due is the due-time index: due[i] is the time of shard i's
	// earliest event, or never for an empty queue. It is exact after
	// shard i's window, at the start of Run and after every barrier
	// phase that did work, and deliver lowers it for mail. An entry can
	// only sit early (an event cancelled from outside its shard's
	// window without barrier work); a window then runs a shard that
	// fires nothing, which does not count as active.
	due   []Time
	first Time // the least entry of due

	inWindow bool     // set while shard windows are running
	outboxes [][]mail // per-source-shard cross-shard posts this window
	posters  []int    // shards whose outbox has mail, in first-post order

	// worked records that the last barrier phase ran a task or a hook
	// that reported work. Such work can leave something for the next
	// barrier's hooks (an audit violation waiting for the drain), so
	// the window after it is never jumped.
	worked bool

	fault *ShardPanic // lowest-indexed shard that panicked this window

	stats ShardedStats

	tasks   []*barrierTask
	next    *barrierTask // earliest pending task by (at, seq), or nil
	taskSeq uint64

	onBarrier []func(now Time) bool

	// OnViolation, when set, receives coordination-contract violations
	// (cross-shard posts inside the lookahead window, barrier tasks
	// scheduled in the past) instead of the coordinator panicking; the
	// offending event is then clamped to the earliest legal time.
	OnViolation func(name, detail string)
}

// never is the due time of an empty queue.
const never = Time(math.MaxInt64)

// mail is one cross-shard event awaiting delivery at the next barrier.
type mail struct {
	at Time
	to int
	fn func()
}

// ShardedStats counts what the coordinator did. Every counter
// accumulates over the engine's lifetime.
type ShardedStats struct {
	Windows      uint64 // windows run or jumped
	IdleWindows  uint64 // windows jumped: no event due and no barrier work
	ActiveShards uint64 // shard-windows with at least one event due
	MailWindows  uint64 // windows that posted cross-shard mail
	Mail         uint64 // cross-shard events merged and delivered at barriers
}

// ShardPanic is the error Run returns when a callback panics. Inside a
// shard window the other active shards still finish that window, and
// the error names the lowest-indexed shard that panicked. In the
// barrier phase the panic ends the phase, and the error names the
// barrier task's label or marks an OnBarrier hook. The engine must not
// be run again afterwards.
type ShardPanic struct {
	Shard int    // shard whose callback panicked; -1 in the barrier phase
	Task  string // barrier phase: the panicking barrier task's label
	Hook  bool   // barrier phase: an OnBarrier hook panicked
	At    Time   // the shard's (or the barrier's) virtual time at the panic
	Value any    // the value passed to panic
	Stack []byte // the stack at the panic
}

func (p *ShardPanic) Error() string {
	switch {
	case p.Hook:
		return fmt.Sprintf("sim: OnBarrier hook panicked at %v: %v", p.At, p.Value)
	case p.Shard < 0:
		return fmt.Sprintf("sim: barrier task %q panicked at %v: %v", p.Task, p.At, p.Value)
	default:
		return fmt.Sprintf("sim: shard %d panicked at %v: %v", p.Shard, p.At, p.Value)
	}
}

// barrierTask is a global synchronous event: it runs at a window
// boundary with every shard parked at exactly its due time.
type barrierTask struct {
	at     Time
	seq    uint64
	period Time
	name   string
	fn     func()
}

// NewSharded builds a coordinator over shards independent engines with
// the given lookahead (the minimum cross-shard event delay). It panics
// on a non-positive shard count or lookahead — a zero lookahead would
// make every window empty and the coordinator pointless.
func NewSharded(shards int, lookahead Time) *ShardedEngine {
	if shards <= 0 {
		panic(fmt.Sprintf("sim: sharded engine needs at least one shard (got %d)", shards))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: sharded engine needs a positive lookahead (got %v)", lookahead))
	}
	s := &ShardedEngine{
		engines:   make([]*Engine, shards),
		due:       make([]Time, shards),
		outboxes:  make([][]mail, shards),
		lookahead: lookahead,
	}
	for i := range s.engines {
		s.engines[i] = NewEngine()
	}
	return s
}

// Shard returns shard i's engine. Shard-local work (the vast majority)
// schedules on it directly; only cross-shard traffic goes through Post.
func (s *ShardedEngine) Shard(i int) *Engine { return s.engines[i] }

// Shards returns the number of shards.
func (s *ShardedEngine) Shards() int { return len(s.engines) }

// Now returns the coordinator's clock: the last barrier time. Shard
// engines run ahead of it mid-window (each by at most the lookahead).
func (s *ShardedEngine) Now() Time { return s.now }

// Fired sums the events dispatched across all shards (the simulation's
// throughput numerator).
func (s *ShardedEngine) Fired() uint64 {
	var n uint64
	for _, e := range s.engines {
		n += e.Fired()
	}
	return n
}

// Stats returns the coordinator's counters so far.
func (s *ShardedEngine) Stats() ShardedStats { return s.stats }

// Post schedules fn on shard to at delay from shard from's current
// time. Called from inside from's window execution it buffers the
// event in from's outbox for delivery at the next barrier; called from
// barrier context (every shard parked) it schedules directly. A delay
// below the lookahead is a violation of the conservative-synchrony
// contract when posted mid-window — the destination may already have
// executed past the delivery time — so it panics (or reports through
// OnViolation and is clamped to the lookahead).
func (s *ShardedEngine) Post(from, to int, delay Time, fn func()) {
	if delay < s.lookahead {
		s.lookaheadViolation(from, to, delay)
		delay = s.lookahead
	}
	at := s.engines[from].Now() + delay
	if !s.inWindow {
		s.engines[to].At(at, fn)
		return
	}
	ob := s.outboxes[from]
	if len(ob) == 0 {
		s.posters = append(s.posters, from)
	}
	s.outboxes[from] = append(ob, mail{at: at, to: to, fn: fn})
}

// lookaheadViolation is the cold path of Post: fmt work happens only
// once the contract is already broken.
//
//go:noinline
func (s *ShardedEngine) lookaheadViolation(from, to int, delay Time) {
	detail := fmt.Sprintf("cross-shard post at %v from shard %d to shard %d with delay %v < lookahead %v",
		s.engines[from].Now(), from, to, delay, s.lookahead)
	if s.OnViolation == nil {
		panic("sim: " + detail)
	}
	s.OnViolation("lookahead-violation", detail)
}

// AtBarrier schedules fn as a global synchronous task at absolute time
// t: the window in progress when t comes due is truncated so a barrier
// lands exactly at t, and fn runs with every shard parked there.
// Scheduling in the past is a violation (panic, or report + clamp).
func (s *ShardedEngine) AtBarrier(t Time, name string, fn func()) {
	if t < s.now {
		detail := fmt.Sprintf("barrier task %q at %v before now %v", name, t, s.now)
		if s.OnViolation == nil {
			panic("sim: " + detail)
		}
		s.OnViolation("schedule-in-past", detail)
		t = s.now
	}
	s.addTask(&barrierTask{at: t, name: name, fn: fn})
}

// EveryBarrier schedules fn as a periodic barrier task, first firing
// after d. A non-positive period is a violation (panic, or report and
// schedule nothing).
func (s *ShardedEngine) EveryBarrier(d Time, name string, fn func()) {
	if d <= 0 {
		detail := fmt.Sprintf("period %v for barrier task %q", d, name)
		if s.OnViolation == nil {
			panic("sim: " + detail)
		}
		s.OnViolation("non-positive-period", detail)
		return
	}
	s.addTask(&barrierTask{at: s.now + d, period: d, name: name, fn: fn})
}

// addTask queues bt with the next sequence number, keeping the cached
// earliest task current.
func (s *ShardedEngine) addTask(bt *barrierTask) {
	bt.seq = s.taskSeq
	s.taskSeq++
	s.tasks = append(s.tasks, bt)
	if s.next == nil || bt.before(s.next) {
		s.next = bt
	}
}

// OnBarrier registers fn to run at barriers, after mailbox delivery and
// before due barrier tasks. The cluster layer handles here the shard
// facts that must wait for every shard to park (bounced requests,
// invariant trips), so control-plane tasks at the same barrier see
// them.
//
// Hooks run at every barrier that ends a window in which a shard had an
// event due, and at every barrier that follows a barrier phase that did
// work; the coordinator jumps the others (see Run). So a hook must leave
// nothing pending that only a shard event, a barrier task or a hook
// reporting work did not put there. fn reports whether it did work: it
// scheduled, cancelled or posted an event, or left something for the
// next barrier. The coordinator then re-reads every shard's queue, and
// runs the next window and its barrier.
func (s *ShardedEngine) OnBarrier(fn func(now Time) bool) {
	s.onBarrier = append(s.onBarrier, fn)
}

// before orders barrier tasks by (at, seq).
func (t *barrierTask) before(u *barrierTask) bool {
	return t.at < u.at || (t.at == u.at && t.seq < u.seq)
}

// popTask re-arms or removes bt, the earliest task, and finds the next
// one. The task list is small (a handful of control-plane timers), so
// a linear scan beats heap bookkeeping, and it runs only at barriers
// that run a task.
func (s *ShardedEngine) popTask(bt *barrierTask) {
	if bt.period > 0 {
		bt.at += bt.period
		bt.seq = s.taskSeq
		s.taskSeq++
	} else {
		i := slices.Index(s.tasks, bt)
		last := len(s.tasks) - 1
		s.tasks[i] = s.tasks[last]
		s.tasks[last] = nil
		s.tasks = s.tasks[:last]
	}
	s.next = nil
	for _, t := range s.tasks {
		if s.next == nil || t.before(s.next) {
			s.next = t
		}
	}
}

// Run advances all shards to the horizon in conservative windows:
// each round every shard executes independently up to
// min(now+lookahead, next barrier task, horizon), then the barrier
// exchanges cross-shard mail, runs drain hooks, and runs due tasks.
// When every shard is quiet and no mail or task is pending before the
// horizon it returns ErrDeadlock, mirroring Engine.Run. A callback that
// panics inside a shard window ends the run with a *ShardPanic once the
// window is over; one that panics in the barrier phase (a drain hook or
// a barrier task) ends it at once with a *ShardPanic naming it.
//
// Windows in which no shard has an event due are jumped whole, along
// the now + k*lookahead grid, unless the barrier phase before them did
// work: such a window fires nothing, posts no mail, and ends at a
// barrier with no task due, whose hooks have nothing to do (OnBarrier).
// A jump stops short of the next due event, the next barrier task and
// the horizon, so the windows and barriers that do work are the ones
// every window would have given.
func (s *ShardedEngine) Run(horizon Time) error {
	// Work scheduled before Run bypasses the index, and may have left
	// hooks something to do.
	s.refreshDue()
	s.worked = true
	for s.now < horizon {
		if !s.worked {
			s.jumpIdle(horizon)
		}
		end := s.now + s.lookahead
		if end > horizon {
			end = horizon
		}
		bt := s.next
		if bt != nil && bt.at < end {
			end = bt.at
		}
		// Every shard empty is a deadlock unless a barrier task is
		// pending; then, like an engine whose next event is beyond the
		// horizon, the idle windows just advance the clock.
		if !s.runWindow(end) && bt == nil {
			for _, e := range s.engines {
				e.now = s.now // undo the partition's clock advance
			}
			return fmt.Errorf("%w at %v (horizon %v)", ErrDeadlock, s.now, horizon)
		}
		if s.fault != nil {
			return s.fault
		}
		s.now = end
		s.barrier()
		if s.fault != nil {
			return s.fault
		}
	}
	return nil
}

// jumpIdle advances the clock over whole idle windows: to the last
// point now + k*lookahead strictly before the earliest due event, the
// next barrier task and the horizon. Shard clocks are left behind; the
// next window moves every one of them to its end. With nothing queued
// and no task pending it jumps nothing, so the next window reports the
// deadlock.
func (s *ShardedEngine) jumpIdle(horizon Time) {
	if s.first == never && s.next == nil {
		return
	}
	limit := min(s.first, horizon)
	if s.next != nil {
		limit = min(limit, s.next.at)
	}
	if k := (limit - s.now - 1) / s.lookahead; k > 0 {
		s.now += k * s.lookahead
		s.stats.Windows += uint64(k)
		s.stats.IdleWindows += uint64(k)
	}
}

// nextAt returns shard i's earliest due time, or never.
func (s *ShardedEngine) nextAt(i int) Time {
	if at, ok := s.engines[i].NextAt(); ok {
		return at
	}
	return never
}

// refreshDue rebuilds the due-time index from every shard's queue.
func (s *ShardedEngine) refreshDue() {
	s.first = never
	for i := range s.due {
		s.due[i] = s.nextAt(i)
		s.first = min(s.first, s.due[i])
	}
}

// runWindow executes every shard with an event due by end, in index
// order, and advances every other shard's clock to end. It reports
// false when every shard's queue was empty. Each shard's window is
// isolated from the others', so the order cannot change the schedule.
// Callers may still rely on it: the cluster layer lets hosts write
// control-plane state mid-window because shard 0 runs first and the
// hosts follow in index order.
func (s *ShardedEngine) runWindow(end Time) bool {
	if end <= s.now {
		return true
	}
	s.stats.Windows++
	active := false
	first := never
	s.inWindow = true
	for i, at := range s.due {
		e := s.engines[i]
		if at > end {
			e.SkipTo(end)
		} else {
			// An entry that sat early fires nothing: count the shard
			// active only if it fired.
			fired := e.fired
			s.runShard(i, end)
			if e.fired != fired {
				s.stats.ActiveShards++
				active = true
			}
			at = s.nextAt(i)
			s.due[i] = at
		}
		first = min(first, at)
	}
	s.inWindow = false
	s.first = first
	// A shard queued at the window's start either fired in it or is
	// still queued.
	return active || first != never
}

// runShard runs shard i's window, turning a panic in one of its
// callbacks into the window's fault, so the remaining active shards
// still finish the window.
func (s *ShardedEngine) runShard(i int, end Time) {
	e := s.engines[i]
	defer func() {
		if v := recover(); v != nil {
			s.recordPanic(i, e.Now(), v)
		}
	}()
	e.RunWindow(end)
}

// recordPanic keeps the window's first panic: shards run in index
// order, so that is the lowest-indexed panicking shard.
//
//go:noinline
func (s *ShardedEngine) recordPanic(shard int, at Time, v any) {
	if s.fault == nil {
		s.fault = &ShardPanic{Shard: shard, At: at, Value: v, Stack: debug.Stack()}
	}
}

// barrier exchanges cross-shard mail, runs the drain hooks, then runs
// every barrier task due at the current time. All of it is
// single-threaded: the shards are parked. A panicking hook or task ends
// the phase and becomes the run's fault; one recover covers the whole
// phase, with hook and task tracking what is running. A phase that did
// work may have scheduled or cancelled events on any shard, so it ends
// by re-reading every queue into the due-time index.
func (s *ShardedEngine) barrier() {
	s.deliver()
	s.worked = false
	task, hook := "", true
	defer func() {
		if v := recover(); v != nil {
			s.fault = &ShardPanic{Shard: -1, Task: task, Hook: hook, At: s.now, Value: v, Stack: debug.Stack()}
		}
	}()
	for _, fn := range s.onBarrier {
		if fn(s.now) {
			s.worked = true
		}
	}
	hook = false
	for bt := s.next; bt != nil && bt.at <= s.now; bt = s.next {
		s.popTask(bt)
		s.worked = true
		task = bt.name
		bt.fn()
	}
	if s.worked {
		s.refreshDue()
	}
}

// deliver inserts the window's mail into the destination engines,
// walking the outboxes that have mail in shard order and each in post
// order. The destination fires by (delivery time, insertion seq), so
// this gives the canonical total order (time, source shard, post
// order) without a sort — independent of the order in which the shards
// ran. Delivery times are strictly beyond the window just executed
// (the lookahead guarantees it), so insertion never schedules in a
// destination's past.
func (s *ShardedEngine) deliver() {
	if len(s.posters) == 0 {
		return
	}
	s.stats.MailWindows++
	// Shards run in index order and post as themselves, so the list is
	// sorted unless a callback posted on another shard's behalf.
	if !slices.IsSorted(s.posters) {
		slices.Sort(s.posters)
	}
	for _, i := range s.posters {
		ob := s.outboxes[i]
		for j := range ob {
			m := &ob[j]
			s.engines[m.to].At(m.at, m.fn)
			s.due[m.to] = min(s.due[m.to], m.at)
			s.first = min(s.first, m.at)
			m.fn = nil
		}
		s.stats.Mail += uint64(len(ob))
		s.outboxes[i] = ob[:0]
	}
	s.posters = s.posters[:0]
}
