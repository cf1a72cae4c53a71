package sim

import (
	"fmt"
	"runtime/debug"
)

// refSharded is the step-every-window coordinator that ShardedEngine
// replaced, kept as the differential oracle for
// FuzzShardedCoordinator, the way heapdiff_test.go keeps
// container/heap. It runs every window and every barrier: each window
// walks every shard, each barrier walks every outbox, calls every
// OnBarrier hook and scans the whole task list. It shares nothing with
// ShardedEngine but the Engine and the ShardPanic and ShardedStats
// types.
//
// It fills ShardedStats.IdleWindows by the jump rule stated on
// ShardedEngine.Run, window by window: a full-length window that ends
// before the next barrier task and the horizon, in which no shard has
// an event due, that follows a barrier phase that did no work, and
// that is not a deadlock (some shard has a queued event, or a task is
// pending).
type refSharded struct {
	engines   []*Engine
	lookahead Time
	now       Time

	inWindow bool
	outboxes [][]mail
	fault    *ShardPanic
	stats    ShardedStats

	tasks   []*barrierTask
	taskSeq uint64

	onBarrier []func(now Time) bool
	worked    bool // the last barrier phase ran a task or a hook reported work
}

func newRefSharded(shards int, lookahead Time) *refSharded {
	s := &refSharded{
		engines:   make([]*Engine, shards),
		outboxes:  make([][]mail, shards),
		lookahead: lookahead,
	}
	for i := range s.engines {
		s.engines[i] = NewEngine()
	}
	return s
}

func (s *refSharded) Shard(i int) *Engine          { return s.engines[i] }
func (s *refSharded) Now() Time                    { return s.now }
func (s *refSharded) Stats() ShardedStats          { return s.stats }
func (s *refSharded) OnBarrier(fn func(Time) bool) { s.onBarrier = append(s.onBarrier, fn) }

func (s *refSharded) Fired() uint64 {
	var n uint64
	for _, e := range s.engines {
		n += e.Fired()
	}
	return n
}

func (s *refSharded) Post(from, to int, delay Time, fn func()) {
	if delay < s.lookahead {
		panic(fmt.Sprintf("ref: post from %d to %d with delay %v < lookahead %v", from, to, delay, s.lookahead))
	}
	at := s.engines[from].Now() + delay
	if !s.inWindow {
		s.engines[to].At(at, fn)
		return
	}
	s.outboxes[from] = append(s.outboxes[from], mail{at: at, to: to, fn: fn})
}

func (s *refSharded) AtBarrier(t Time, name string, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("ref: barrier task %q at %v before now %v", name, t, s.now))
	}
	s.tasks = append(s.tasks, &barrierTask{at: t, seq: s.taskSeq, name: name, fn: fn})
	s.taskSeq++
}

func (s *refSharded) EveryBarrier(d Time, name string, fn func()) {
	if d <= 0 {
		panic(fmt.Sprintf("ref: period %v for barrier task %q", d, name))
	}
	s.tasks = append(s.tasks, &barrierTask{at: s.now + d, seq: s.taskSeq, period: d, name: name, fn: fn})
	s.taskSeq++
}

func (s *refSharded) nextTask() (*barrierTask, int) {
	var best *barrierTask
	idx := -1
	for i, t := range s.tasks {
		if best == nil || t.at < best.at || (t.at == best.at && t.seq < best.seq) {
			best, idx = t, i
		}
	}
	return best, idx
}

func (s *refSharded) Run(horizon Time) error {
	s.worked = true
	for s.now < horizon {
		end := s.now + s.lookahead
		if end > horizon {
			end = horizon
		}
		bt, _ := s.nextTask()
		if bt != nil && bt.at < end {
			end = bt.at
		}
		if s.jumpable(end, horizon, bt) {
			s.stats.IdleWindows++
		}
		if !s.runWindow(end) && bt == nil {
			for _, e := range s.engines {
				e.now = s.now
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

// jumpable reports whether the window to end is one the jump rule
// covers (see the type's comment).
func (s *refSharded) jumpable(end, horizon Time, bt *barrierTask) bool {
	if s.worked || end != s.now+s.lookahead || end >= horizon || (bt != nil && end >= bt.at) {
		return false
	}
	queued := bt != nil
	for _, e := range s.engines {
		at, ok := e.NextAt()
		if ok && at <= end {
			return false
		}
		queued = queued || ok
	}
	return queued
}

func (s *refSharded) runWindow(end Time) bool {
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

func (s *refSharded) runShard(i int, end Time) {
	e := s.engines[i]
	defer func() {
		if v := recover(); v != nil && s.fault == nil {
			s.fault = &ShardPanic{Shard: i, At: e.Now(), Value: v, Stack: debug.Stack()}
		}
	}()
	e.RunWindow(end)
}

func (s *refSharded) barrier() {
	s.deliver()
	task, hook := "", true
	defer func() {
		if v := recover(); v != nil {
			s.fault = &ShardPanic{Shard: -1, Task: task, Hook: hook, At: s.now, Value: v, Stack: debug.Stack()}
		}
	}()
	s.worked = false
	for _, fn := range s.onBarrier {
		if fn(s.now) {
			s.worked = true
		}
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
		s.worked = true
		bt.fn()
	}
}

func (s *refSharded) deliver() {
	mailed := false
	for i, ob := range s.outboxes {
		mailed = mailed || len(ob) > 0
		for j := range ob {
			m := &ob[j]
			s.engines[m.to].At(m.at, m.fn)
			m.fn = nil
		}
		s.stats.Mail += uint64(len(ob))
		s.outboxes[i] = ob[:0]
	}
	if mailed {
		s.stats.MailWindows++
	}
}
