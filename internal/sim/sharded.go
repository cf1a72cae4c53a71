package sim

import (
	"fmt"
	"runtime/debug"
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

	inWindow bool     // set while shard windows are running
	outboxes [][]mail // per-source-shard cross-shard posts this window

	fault *ShardPanic // lowest-indexed shard that panicked this window

	stats ShardedStats

	tasks   []*barrierTask
	taskSeq uint64

	onBarrier []func(now Time)

	// OnViolation, when set, receives coordination-contract violations
	// (cross-shard posts inside the lookahead window, barrier tasks
	// scheduled in the past) instead of the coordinator panicking; the
	// offending event is then clamped to the earliest legal time.
	OnViolation func(name, detail string)
}

// mail is one cross-shard event awaiting delivery at the next barrier.
type mail struct {
	at Time
	to int
	fn func()
}

// ShardedStats counts what the coordinator did. Every counter
// accumulates over the engine's lifetime.
type ShardedStats struct {
	Windows      uint64 // windows run, idle ones included
	ActiveShards uint64 // shard-windows with at least one event due
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
	s.outboxes[from] = append(s.outboxes[from], mail{at: at, to: to, fn: fn})
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
	s.tasks = append(s.tasks, &barrierTask{at: t, seq: s.taskSeq, name: name, fn: fn})
	s.taskSeq++
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
	s.tasks = append(s.tasks, &barrierTask{at: s.now + d, seq: s.taskSeq, period: d, name: name, fn: fn})
	s.taskSeq++
}

// OnBarrier registers fn to run at every barrier, after mailbox
// delivery and before due barrier tasks. The cluster layer handles
// here the shard facts that must wait for every shard to park (bounced
// requests, invariant trips), so control-plane tasks at the same
// barrier see them.
func (s *ShardedEngine) OnBarrier(fn func(now Time)) {
	s.onBarrier = append(s.onBarrier, fn)
}

// nextTask returns the earliest pending barrier task by (at, seq), or
// nil. The task list is small (a handful of control-plane timers), so
// a linear scan beats heap bookkeeping.
func (s *ShardedEngine) nextTask() (*barrierTask, int) {
	var best *barrierTask
	idx := -1
	for i, t := range s.tasks {
		if best == nil || t.at < best.at || (t.at == best.at && t.seq < best.seq) {
			best, idx = t, i
		}
	}
	return best, idx
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
func (s *ShardedEngine) Run(horizon Time) error {
	for s.now < horizon {
		end := s.now + s.lookahead
		if end > horizon {
			end = horizon
		}
		bt, _ := s.nextTask()
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

// runWindow executes every shard from its current time to end, in
// index order, and reports false when every shard's queue was empty. A
// shard with no event due in the window only has its clock advanced.
// Each shard's window is isolated from the others', so the order cannot
// change the schedule. Callers may still rely on it: the cluster layer
// lets hosts write control-plane state mid-window because shard 0 runs
// first and the hosts follow in index order.
func (s *ShardedEngine) runWindow(end Time) bool {
	if end <= s.now {
		return true
	}
	s.stats.Windows++
	queued := false
	s.inWindow = true
	for i, e := range s.engines {
		at, ok := e.NextAt()
		queued = queued || ok
		if !ok || at > end {
			e.SkipTo(end)
			continue
		}
		s.stats.ActiveShards++
		s.runShard(i, end)
	}
	s.inWindow = false
	return queued
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
// phase, with hook and task tracking what is running.
func (s *ShardedEngine) barrier() {
	s.deliver()
	task, hook := "", true
	defer func() {
		if v := recover(); v != nil {
			s.fault = &ShardPanic{Shard: -1, Task: task, Hook: hook, At: s.now, Value: v, Stack: debug.Stack()}
		}
	}()
	for _, fn := range s.onBarrier {
		fn(s.now)
	}
	hook = false
	for {
		bt, idx := s.nextTask()
		if bt == nil || bt.at > s.now {
			break
		}
		if bt.period > 0 {
			bt.at += bt.period
			bt.seq = s.taskSeq
			s.taskSeq++
		} else {
			last := len(s.tasks) - 1
			s.tasks[idx] = s.tasks[last]
			s.tasks[last] = nil
			s.tasks = s.tasks[:last]
		}
		task = bt.name
		bt.fn()
	}
}

// deliver inserts every outbox's mail into the destination engines,
// walking the outboxes in shard order and each in post order. The
// destination fires by (delivery time, insertion seq), so this gives
// the canonical total order (time, source shard, post order) without a
// sort — independent of the order in which the shards ran. Delivery
// times are strictly beyond the window just executed (the lookahead
// guarantees it), so insertion never schedules in a destination's past.
func (s *ShardedEngine) deliver() {
	for i, ob := range s.outboxes {
		for j := range ob {
			m := &ob[j]
			s.engines[m.to].At(m.at, m.fn)
			m.fn = nil
		}
		s.stats.Mail += uint64(len(ob))
		s.outboxes[i] = ob[:0]
	}
}
