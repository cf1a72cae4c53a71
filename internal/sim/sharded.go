package sim

import (
	"cmp"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// ShardedEngine is a conservative parallel discrete-event coordinator:
// N independent Engines (shards) advance in lockstep through time
// windows bounded by a fixed lookahead — the known minimum latency of
// any cross-shard interaction. Within a window every shard's events are
// data-isolated, so shards may execute on a bounded goroutine pool; at
// the window boundary (a barrier) all shards are parked at the same
// virtual time and cross-shard traffic is exchanged.
//
// Determinism is by construction, not by luck:
//
//   - Cross-shard events are posted with delay >= lookahead (Post), so
//     a message sent inside a window (T, T+W], W <= lookahead, is
//     delivered strictly after the window ends. Shards therefore never
//     observe each other mid-window, and the worker count cannot change
//     what any shard computes. Posting with a shorter delay is a
//     lookahead violation: it panics, or reports through OnViolation
//     and is clamped to the lookahead.
//   - Mailboxes are merged at each barrier under the canonical key
//     (delivery time, source shard, post order) — the same trick the
//     experiment harness uses to merge parallel jobs — and inserted
//     into the destination engines single-threaded, so the destination
//     sequence numbers (and hence same-instant tie-breaks) are
//     identical for any worker count.
//   - Whether a window runs inline or on the pool depends only on the
//     work it carries (see windowGate), never on what the shards
//     compute, and a shard's window is single-threaded either way.
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
	workers   int

	inWindow bool     // set while shard goroutines may be running
	outboxes [][]mail // per-source-shard cross-shard posts this window
	scratch  []mail   // merge buffer reused across barriers
	active   []int    // indices of the shards with events due this window, reused
	gate     int      // windowGate; benchmarks lower it to force the pool

	// Window state, written by the coordinator before any shard runs:
	// every participant claims active shards off next and runs each to
	// end.
	end  Time
	next atomic.Int64
	pool *shardPool // helper goroutines of the Run in progress, or nil

	faultMu sync.Mutex
	fault   *ShardPanic // lowest-indexed shard that panicked this window

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

// shardPool is the workers-1 helper goroutines of one Run. They start
// at the first parallel window, park on wake between windows, and exit
// when Run returns; the calling goroutine is the remaining worker.
type shardPool struct {
	wake chan struct{}  // one token per helper wanted this window
	busy sync.WaitGroup // tokens of the window in progress
	live sync.WaitGroup // helpers not yet exited
}

// ShardedStats counts what the coordinator did. Every counter is
// written on the coordinator goroutine only and accumulates over the
// engine's lifetime.
type ShardedStats struct {
	Windows         uint64 // windows run, idle ones included
	InlineWindows   uint64 // windows whose active shards ran on the calling goroutine
	ParallelWindows uint64 // windows that woke the helper pool
	ActiveShards    uint64 // shard-windows with at least one event due
	Mail            uint64 // cross-shard events merged and delivered at barriers
}

// ShardPanic is the error Run returns when a callback panics. Inside a
// shard window the other active shards still finish that window, and
// the error names the lowest-indexed shard that panicked. In the
// barrier phase the panic ends the phase, and the error names the
// barrier task's label or marks an OnBarrier hook. Either way it is the
// same for every worker count. The engine must not be run again
// afterwards.
type ShardPanic struct {
	Shard int    // shard whose callback panicked; -1 in the barrier phase
	Task  string // barrier phase: the panicking barrier task's label
	Hook  bool   // barrier phase: an OnBarrier hook panicked
	At    Time   // the shard's (or the barrier's) virtual time at the panic
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
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
		workers:   1,
		gate:      windowGate,
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

// SetWorkers bounds the goroutine pool that executes shard windows.
// One worker (the default) runs shards sequentially on the caller's
// goroutine — the serial mode. More workers are woken only for windows
// heavy enough to pay for it (windowGate). The output is identical
// either way; the worker count is invisible to the simulation by
// construction.
func (s *ShardedEngine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// Workers returns the configured pool bound.
func (s *ShardedEngine) Workers() int { return s.workers }

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
// delivery and before due barrier tasks. The cluster layer drains
// per-shard observation outboxes here (served requests, occupancy
// intervals, finished spans) so control-plane tasks at the same
// barrier see every shard fact up to the barrier time.
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
// a barrier task) ends it at once with a *ShardPanic naming it. Helper
// goroutines started for parallel windows never outlive the call.
func (s *ShardedEngine) Run(horizon Time) error {
	defer s.stopPool()
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

// runWindow executes every shard from its current time to end and
// reports false when every shard's queue was empty. Shards with no event
// due in the window are skipped inline — their clock just advances —
// so idle hosts cost no worker wakeup. Light windows (see windowGate)
// run their active shards sequentially in index order on the calling
// goroutine, as one worker always does; heavy ones are claimed off a
// shared counter by the caller and up to workers-1 parked helpers.
// Either way each shard's window is single-threaded and isolated, so
// the schedule is identical.
func (s *ShardedEngine) runWindow(end Time) bool {
	if end <= s.now {
		return true
	}
	s.stats.Windows++
	// Partition: an engine whose next event lies beyond the window
	// would only execute `now = end` — doing that here skips the
	// wake/park round-trip that dominates when most shards are idle.
	// With a pool, also weigh the window: the due events of every
	// active shard, each count capped at the gate (which cannot change
	// the verdict below).
	gated := s.workers > 1 && s.gate > 0
	queued := false
	due, busiest := 0, 0
	active := s.active[:0]
	for i, e := range s.engines {
		at, ok := e.NextAt()
		queued = queued || ok
		if !ok || at > end {
			e.SkipTo(end)
			continue
		}
		active = append(active, i)
		if gated {
			n := e.dueBy(end, s.gate)
			due += n
			busiest = max(busiest, n)
		}
	}
	s.active = active
	if len(active) == 0 {
		return queued
	}
	s.stats.ActiveShards += uint64(len(active))
	s.inWindow = true
	s.end = end
	// The busiest shard runs on one worker whatever happens; the pool
	// pays off only when the rest of the window is worth a wakeup.
	n := min(s.workers, len(active))
	if n <= 1 || due-busiest < s.gate {
		s.stats.InlineWindows++
		for _, i := range active {
			s.runShard(i)
		}
	} else {
		s.stats.ParallelWindows++
		s.next.Store(0)
		p := s.startPool()
		p.busy.Add(n - 1)
		for i := 1; i < n; i++ {
			p.wake <- struct{}{}
		}
		s.claim()
		p.busy.Wait()
	}
	s.inWindow = false
	return true
}

// claim runs active shards off the shared counter until none is left.
func (s *ShardedEngine) claim() {
	for {
		i := int(s.next.Add(1)) - 1
		if i >= len(s.active) {
			return
		}
		s.runShard(s.active[i])
	}
}

// runShard runs shard i's window, turning a panic in one of its
// callbacks into the window's fault rather than letting it unwind the
// goroutine that happened to claim the shard.
func (s *ShardedEngine) runShard(i int) {
	e := s.engines[i]
	defer func() {
		if v := recover(); v != nil {
			s.recordPanic(i, e.Now(), v)
		}
	}()
	e.RunWindow(s.end)
}

// recordPanic keeps the lowest-indexed shard's panic of the window.
//
//go:noinline
func (s *ShardedEngine) recordPanic(shard int, at Time, v any) {
	stack := debug.Stack()
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if s.fault == nil || shard < s.fault.Shard {
		s.fault = &ShardPanic{Shard: shard, At: at, Value: v, Stack: stack}
	}
}

// startPool returns the Run's helper pool, starting workers-1 helpers
// on first use.
func (s *ShardedEngine) startPool() *shardPool {
	if s.pool != nil {
		return s.pool
	}
	// One buffer slot per helper: a window sends at most workers-1
	// tokens, so the coordinator never blocks handing them out.
	p := &shardPool{wake: make(chan struct{}, s.workers-1)}
	p.live.Add(s.workers - 1)
	for i := 1; i < s.workers; i++ {
		go s.help(p)
	}
	s.pool = p
	return p
}

// help is a helper's loop: each wake token is one claim pass of the
// current window.
func (s *ShardedEngine) help(p *shardPool) {
	defer p.live.Done()
	for range p.wake {
		s.claim()
		p.busy.Done()
	}
}

// stopPool releases the helpers and waits for them to exit.
func (s *ShardedEngine) stopPool() {
	p := s.pool
	if p == nil {
		return
	}
	s.pool = nil
	close(p.wake)
	p.live.Wait()
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

// deliver merges every outbox and inserts the mail into the
// destination engines. Concatenating outboxes in shard order and
// stable-sorting by delivery time yields the canonical total order
// (time, source shard, post order) — independent of which worker ran
// which shard. Delivery times are strictly beyond the window just
// executed (the lookahead guarantees it), so insertion never schedules
// in a destination's past.
func (s *ShardedEngine) deliver() {
	all := s.scratch[:0]
	for i, ob := range s.outboxes {
		if len(ob) > 0 {
			all = append(all, ob...)
			s.outboxes[i] = ob[:0]
		}
	}
	if len(all) == 0 {
		s.scratch = all
		return
	}
	s.stats.Mail += uint64(len(all))
	slices.SortStableFunc(all, func(a, b mail) int { return cmp.Compare(a.at, b.at) })
	for i := range all {
		m := &all[i]
		s.engines[m.to].At(m.at, m.fn)
		m.fn = nil
	}
	s.scratch = all[:0]
}
