package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// shardedRig wires a ping-pong workload over n shards: every shard
// runs a local periodic event and posts cross-shard messages that
// re-post on arrival, exercising mailbox delivery, ordering, and the
// window/barrier machinery. Each shard appends to its own log
// (single-writer mid-window); logs are concatenated at the end.
func shardedRig(t *testing.T, shards int, lookahead, horizon Time) (string, *ShardedEngine) {
	t.Helper()
	s := NewSharded(shards, lookahead)
	logs := make([][]string, shards)
	var hop func(from, to, ttl int)
	hop = func(from, to, ttl int) {
		s.Post(from, to, lookahead+Time(from+1)*Microsecond, func() {
			logs[to] = append(logs[to], fmt.Sprintf("%d recv from %d at %v", to, from, s.Shard(to).Now()))
			if ttl > 0 {
				hop(to, (to+1)%shards, ttl-1)
			}
		})
	}
	for i := 0; i < shards; i++ {
		s.Shard(i).Every(37*Microsecond+Time(i)*Microsecond, func() {
			logs[i] = append(logs[i], fmt.Sprintf("%d tick at %v", i, s.Shard(i).Now()))
		})
		s.Shard(i).After(5*Microsecond, func() { hop(i, (i+3)%shards, 40) })
	}
	barriers := 0
	s.OnBarrier(func(now Time) bool { barriers++; return false })
	s.EveryBarrier(90*Microsecond, "epoch", func() {
		for j := range logs {
			logs[j] = append(logs[j], fmt.Sprintf("%d epoch at %v", j, s.Now()))
		}
	})
	if err := s.Run(horizon); err != nil {
		t.Fatalf("run: %v", err)
	}
	if barriers == 0 {
		t.Fatalf("no barriers ran")
	}
	if got := s.Now(); got != horizon {
		t.Fatalf("coordinator stopped at %v, want %v", got, horizon)
	}
	for i := 0; i < shards; i++ {
		if got := s.Shard(i).Now(); got != horizon {
			t.Fatalf("shard %d stopped at %v, want %v", i, got, horizon)
		}
	}
	var b strings.Builder
	for _, l := range logs {
		for _, line := range l {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String(), s
}

// TestShardedDeterministicAcrossWorkers runs the ping-pong rig once and
// accounts for every event and every counter: each fired event is a
// logged tick, a logged delivery or one of the shards' opening hops,
// every merged mail item fired before the horizon, and the window
// counters match the rig's layout. Windows run their shards inline in
// index order, so there is no worker count left to vary;
// TestShardedMatchesOneEngine pins the schedule itself.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	const shards = 5
	log, s := shardedRig(t, shards, 50*Microsecond, 3*Millisecond)
	ticks, recvs := strings.Count(log, " tick at "), strings.Count(log, " recv from ")
	if ticks == 0 || recvs == 0 {
		t.Fatalf("rig produced no traffic:\n%s", log)
	}
	// Every chain makes 41 hops and ends well before the horizon.
	if recvs != shards*41 {
		t.Fatalf("%d deliveries, want %d", recvs, shards*41)
	}
	if got, want := s.Fired(), uint64(ticks+recvs+shards); got != want {
		t.Fatalf("fired %d events, want %d ticks + %d deliveries + %d opening hops", got, ticks, recvs, shards)
	}
	st := s.Stats()
	if st.Mail != uint64(recvs) {
		t.Fatalf("stats %+v: merged %d mail items, want the %d deliveries", st, st.Mail, recvs)
	}
	// Each 90µs epoch splits into a 50µs window and a 40µs one, cut
	// at the epoch's barrier: 33 epochs, then one 30µs window to 3ms.
	// Every shard ticks at least every 41µs, so no window is idle.
	want := ShardedStats{Windows: 67, IdleWindows: 0, ActiveShards: 333, MailWindows: 45, Mail: 205}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestShardedJumpsIdleWindows walks a sparse rig window by window. A
// two-hop chain, a barrier task off the window grid that leaves a hook
// a note, and a late event leave most windows idle. The coordinator
// jumps each idle span to the last grid point before the next due
// event or task, walks the window after a barrier phase that did work,
// and calls the hooks only at the barriers of walked windows.
func TestShardedJumpsIdleWindows(t *testing.T) {
	const L = 50 * Microsecond
	s := NewSharded(3, L)
	var fired []string
	logf := func(shard int, what string) {
		fired = append(fired, fmt.Sprintf("%s@%d", what, s.Shard(shard).Now()/Microsecond))
	}
	s.Shard(0).At(10*Microsecond, func() {
		logf(0, "start")
		s.Post(0, 1, 400*Microsecond, func() {
			logf(1, "hop")
			s.Post(1, 2, 300*Microsecond, func() { logf(2, "hop") })
		})
	})
	s.Shard(0).At(990*Microsecond, func() { logf(0, "late") })
	notes := 0
	var calls, drained []Time
	s.OnBarrier(func(now Time) bool {
		calls = append(calls, now)
		if notes == 0 {
			return false
		}
		notes = 0
		drained = append(drained, now)
		return true
	})
	s.AtBarrier(525*Microsecond, "note", func() {
		for i := 0; i < 3; i++ {
			if got := s.Shard(i).Now(); got != s.Now() {
				t.Errorf("shard %d at %v during the barrier at %v", i, got, s.Now())
			}
		}
		notes++
	})
	if err := s.Run(Millisecond); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(fired, " "), "start@10 hop@410 hop@710 late@990"; got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
	// Walked: (0,50] (400,450] (500,525] (525,575] (575,625] (675,725]
	// (975,1000]; jumped: 50→400, 450→500, 625→675 and 725→975.
	us := func(ts ...Time) []Time {
		for i := range ts {
			ts[i] *= Microsecond
		}
		return ts
	}
	if want := us(50, 450, 525, 575, 625, 725, 1000); !slices.Equal(calls, want) {
		t.Fatalf("hooks ran at %v, want %v", calls, want)
	}
	if want := us(575); !slices.Equal(drained, want) {
		t.Fatalf("hook drained its note at %v, want %v", drained, want)
	}
	want := ShardedStats{Windows: 21, IdleWindows: 14, ActiveShards: 4, MailWindows: 2, Mail: 2}
	if st := s.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	for i := 0; i < 3; i++ {
		if got := s.Shard(i).Now(); got != Millisecond {
			t.Fatalf("shard %d stopped at %v, want 1ms", i, got)
		}
	}
}

// TestShardedMatchesOneEngine is the layout oracle: a ping-pong rig run
// on n shards, cross-node traffic going through Post, must give every
// node the same log, and fire the same number of events, as the same
// rig with every node on one plain Engine, where a post is just
// At(now+delay). Each node runs a periodic tick that posts to the next
// node, and relays a 40-hop chain started by every node.
//
// The rig keeps delivered posts off every instant at which their
// destination has another event: ticks sit on whole microseconds, tick
// posts 3ns and a chain's k-th hop 7k ns past one, and each chain's k-th
// hop lands on a different node. At such a tie the two layouts may
// legitimately differ: the sharded engine inserts mail at the barrier,
// in (time, source shard, post order), while one engine orders by the
// instant each event was scheduled. TestShardedMailboxOrdering pins
// that barrier tie order instead. The test checks the restriction
// itself, so a change to the rig cannot hide a tie.
func TestShardedMatchesOneEngine(t *testing.T) {
	const nodes, lookahead, horizon = 5, 50 * Microsecond, 4 * Millisecond
	type layout struct {
		clock func(node int) *Engine
		post  func(from, to int, delay Time, fn func())
	}
	rig := func(l layout) [][]string {
		logs := make([][]string, nodes)
		note := func(node int, format string, args ...any) {
			logs[node] = append(logs[node], fmt.Sprintf("%d ", l.clock(node).Now())+fmt.Sprintf(format, args...))
		}
		var hop func(from, to, ttl int)
		hop = func(from, to, ttl int) {
			l.post(from, to, lookahead+Time(from)*Microsecond+7*Nanosecond, func() {
				note(to, "hop from %d, ttl %d", from, ttl)
				if ttl > 0 {
					hop(to, (to+3)%nodes, ttl-1)
				}
			})
		}
		for i := 0; i < nodes; i++ {
			n := 0
			l.clock(i).Every(31*Microsecond+Time(2*i)*Microsecond, func() {
				n++
				note(i, "tick %d", n)
				to, k := (i+1)%nodes, n
				l.post(i, to, lookahead+Time(i)*Microsecond+3*Nanosecond, func() { note(to, "tick %d of %d", k, i) })
			})
			l.clock(i).After(5*Microsecond, func() { hop(i, (i+1)%nodes, 40) })
		}
		return logs
	}

	s := NewSharded(nodes, lookahead)
	sharded := rig(layout{clock: s.Shard, post: s.Post})
	if err := s.Run(horizon); err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	e := NewEngine()
	one := rig(layout{
		clock: func(int) *Engine { return e },
		post:  func(_, _ int, delay Time, fn func()) { e.At(e.Now()+delay, fn) },
	})
	if err := e.Run(horizon); err != nil {
		t.Fatalf("one-engine run: %v", err)
	}

	for i := 0; i < nodes; i++ {
		if len(sharded[i]) < 100 {
			t.Fatalf("node %d logged only %d events", i, len(sharded[i]))
		}
		for j := 1; j < len(one[i]); j++ {
			prev, _, _ := strings.Cut(one[i][j-1], " ")
			at, _, _ := strings.Cut(one[i][j], " ")
			if at == prev {
				t.Fatalf("node %d has two events at %sns (%q, %q): the rig must avoid ties", i, at, one[i][j-1], one[i][j])
			}
		}
		if got, want := strings.Join(sharded[i], "\n"), strings.Join(one[i], "\n"); got != want {
			t.Fatalf("node %d: sharded log differs from one engine's\n--- sharded ---\n%s\n--- one engine ---\n%s", i, got, want)
		}
	}
	if s.Fired() != e.Fired() {
		t.Fatalf("sharded run fired %d events, one engine %d", s.Fired(), e.Fired())
	}
	if st := s.Stats(); st.Mail == 0 {
		t.Fatalf("stats %+v: no mail crossed a barrier", st)
	}
}

// TestShardedLookaheadViolation pins the conservative-synchrony
// invariant: posting a cross-shard event with delay < lookahead inside
// a window panics without a hook, and with OnViolation set it reports
// and clamps the delay to the lookahead.
func TestShardedLookaheadViolation(t *testing.T) {
	t.Run("panics", func(t *testing.T) {
		s := NewSharded(2, 100*Microsecond)
		s.Shard(0).After(10*Microsecond, func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("in-window post below lookahead did not panic")
					return
				}
				if !strings.Contains(fmt.Sprint(r), "lookahead") {
					t.Errorf("panic %q does not mention lookahead", r)
				}
			}()
			s.Post(0, 1, 5*Microsecond, func() {})
		})
		s.EveryBarrier(150*Microsecond, "keepalive", func() {})
		if err := s.Run(200 * Microsecond); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	t.Run("reported and clamped", func(t *testing.T) {
		s := NewSharded(2, 100*Microsecond)
		var viols []string
		s.OnViolation = func(name, detail string) {
			viols = append(viols, name+": "+detail)
		}
		var deliveredAt Time
		s.Shard(0).After(10*Microsecond, func() {
			s.Post(0, 1, 5*Microsecond, func() { deliveredAt = s.Shard(1).Now() })
		})
		s.EveryBarrier(150*Microsecond, "keepalive", func() {})
		if err := s.Run(400 * Microsecond); err != nil {
			t.Fatalf("run: %v", err)
		}
		if len(viols) != 1 || !strings.Contains(viols[0], "lookahead-violation") {
			t.Fatalf("violations = %v, want one lookahead-violation", viols)
		}
		if !strings.Contains(viols[0], "from shard 0 to shard 1") {
			t.Fatalf("violation %q does not name the shards", viols[0])
		}
		if want := 110 * Microsecond; deliveredAt != want {
			t.Fatalf("clamped delivery at %v, want %v (post time + lookahead)", deliveredAt, want)
		}
	})
}

// TestShardedBarrierTasks checks that barrier tasks run at exactly
// their due times with every shard parked there, that windows truncate
// to land barriers on task times, and that periodic tasks re-arm.
func TestShardedBarrierTasks(t *testing.T) {
	s := NewSharded(3, 70*Microsecond)
	var at []Time
	s.AtBarrier(105*Microsecond, "once", func() {
		at = append(at, s.Now())
		for i := 0; i < s.Shards(); i++ {
			if got := s.Shard(i).Now(); got != s.Now() {
				t.Errorf("shard %d at %v during barrier at %v", i, got, s.Now())
			}
		}
	})
	var every []Time
	s.EveryBarrier(100*Microsecond, "periodic", func() { every = append(every, s.Now()) })
	// Keep the shards busy so the run isn't a deadlock.
	for i := 0; i < 3; i++ {
		s.Shard(i).Every(11*Microsecond, func() {})
	}
	if err := s.Run(350 * Microsecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(at) != 1 || at[0] != 105*Microsecond {
		t.Fatalf("one-shot barrier task ran at %v, want exactly once at 105µs", at)
	}
	if want := []Time{100 * Microsecond, 200 * Microsecond, 300 * Microsecond}; len(every) != len(want) {
		t.Fatalf("periodic barrier task ran at %v, want %v", every, want)
	} else {
		for i := range want {
			if every[i] != want[i] {
				t.Fatalf("periodic barrier task ran at %v, want %v", every, want)
			}
		}
	}
}

// TestShardedDeadlock mirrors Engine.Run: a coordinator with no
// pending events, mail, or barrier tasks before the horizon reports
// ErrDeadlock rather than spinning to the horizon.
func TestShardedDeadlock(t *testing.T) {
	s := NewSharded(2, 50*Microsecond)
	s.Shard(0).After(30*Microsecond, func() {})
	err := s.Run(Millisecond)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	for i := 0; i < 2; i++ {
		if got := s.Shard(i).Now(); got != 50*Microsecond {
			t.Fatalf("shard %d at %v after deadlock, want the last barrier 50µs", i, got)
		}
	}
}

// TestShardedMailboxOrdering pins the canonical delivery order: posts
// delivered to one shard fire by time, then source shard, then post
// order, regardless of post timing inside the window.
func TestShardedMailboxOrdering(t *testing.T) {
	s := NewSharded(3, 100*Microsecond)
	var order []int
	// Shard 2 posts first in wall-clock terms (lower window cost), but
	// shard 1 is the lower source index; both deliveries land on shard
	// 0 at the same instant and must fire in source order 1, 2.
	s.Shard(2).After(10*Microsecond, func() {
		s.Post(2, 0, 100*Microsecond, func() { order = append(order, 2) })
	})
	s.Shard(1).After(10*Microsecond, func() {
		s.Post(1, 0, 100*Microsecond, func() { order = append(order, 1) })
	})
	s.EveryBarrier(500*Microsecond, "keepalive", func() {})
	if err := s.Run(Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order = %v, want [1 2]", order)
	}

	// Mail is delivered unsorted, in source-shard then post order; the
	// destination's (time, insertion) order must still give the
	// canonical (time, source shard, post order) sequence. Shard 1
	// posts out of time order, and shard 0 posts later in virtual time
	// than shard 1 but must still fire first at the shared instant.
	s = NewSharded(3, 100*Microsecond)
	var fired []string
	post := func(from int, at Time, name string) {
		s.Post(from, 2, at-s.Shard(from).Now(), func() {
			fired = append(fired, fmt.Sprintf("%s@%v", name, s.Shard(2).Now()))
		})
	}
	s.Shard(1).After(10*Microsecond, func() {
		post(1, 300*Microsecond, "A")
		post(1, 200*Microsecond, "B")
		post(1, 300*Microsecond, "C")
	})
	s.Shard(0).After(20*Microsecond, func() { post(0, 300*Microsecond, "D") })
	s.EveryBarrier(500*Microsecond, "keepalive", func() {})
	if err := s.Run(Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got, want := strings.Join(fired, " "), "B@200.000µs D@300.000µs A@300.000µs C@300.000µs"; got != want {
		t.Fatalf("delivery order = %s, want %s", got, want)
	}
}

// TestEngineRunWindow covers the window primitive directly: events at
// or before the window end fire, later ones stay queued, and an empty
// queue still advances the clock (no deadlock mid-rack).
func TestEngineRunWindow(t *testing.T) {
	e := NewEngine()
	var fired []string
	e.At(10*Microsecond, func() { fired = append(fired, "a") })
	e.At(50*Microsecond, func() { fired = append(fired, "b") })
	e.At(80*Microsecond, func() { fired = append(fired, "c") })
	e.RunWindow(50 * Microsecond)
	if got := strings.Join(fired, ","); got != "a,b" {
		t.Fatalf("fired %q in first window, want a,b", got)
	}
	if e.Now() != 50*Microsecond {
		t.Fatalf("now = %v, want 50µs", e.Now())
	}
	e.RunWindow(60 * Microsecond) // empty window: clock still advances
	if e.Now() != 60*Microsecond || len(fired) != 2 {
		t.Fatalf("empty window mishandled: now=%v fired=%v", e.Now(), fired)
	}
	e.RunWindow(100 * Microsecond)
	if got := strings.Join(fired, ","); got != "a,b,c" {
		t.Fatalf("fired %q, want a,b,c", got)
	}
}

// TestShardedRunTwiceMatchesSerial runs one engine to the horizon in
// two Run calls and requires the same log as a single Run. The split
// lands on a window boundary, so both schedules see the same windows.
func TestShardedRunTwiceMatchesSerial(t *testing.T) {
	const shards, horizon = 4, 2 * Millisecond
	run := func(stops ...Time) []string {
		s := NewSharded(shards, 50*Microsecond)
		logs := make([][]string, shards)
		for i := 0; i < shards; i++ {
			s.Shard(i).Every(23*Microsecond+Time(i)*Microsecond, func() {
				logs[i] = append(logs[i], fmt.Sprintf("tick %v", s.Shard(i).Now()))
				s.Post(i, (i+1)%shards, 60*Microsecond, func() {
					to := (i + 1) % shards
					logs[to] = append(logs[to], fmt.Sprintf("recv %d at %v", i, s.Shard(to).Now()))
				})
			})
		}
		for _, h := range stops {
			if err := s.Run(h); err != nil {
				t.Fatalf("run to %v: %v", h, err)
			}
		}
		var out []string
		for _, l := range logs {
			out = append(out, l...)
		}
		return out
	}
	want := strings.Join(run(horizon), "\n")
	if got := strings.Join(run(horizon/2, horizon), "\n"); got != want {
		t.Fatal("two Runs diverged from one Run")
	}
}

// TestShardedStaleDueEntryNotActive leaves a due-index entry early: a
// shard-1 callback cancels shard 0's only event after shard 0 has run
// its window. The next window still runs shard 0 (its entry is due)
// but counts it active only if it fired, so ActiveShards keeps
// counting shard-windows with an event due.
func TestShardedStaleDueEntryNotActive(t *testing.T) {
	const L = 50 * Microsecond
	s := NewSharded(2, L)
	ref := s.Shard(0).At(120*Microsecond, func() { t.Error("cancelled event fired") })
	s.Shard(1).At(60*Microsecond, func() { s.Shard(0).Cancel(ref) })
	s.Shard(1).At(190*Microsecond, func() {})
	if err := s.Run(200 * Microsecond); err != nil {
		t.Fatal(err)
	}
	want := ShardedStats{Windows: 4, ActiveShards: 2}
	if st := s.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestShardedWindowAllocs pins the steady-state cost of a window at
// zero allocations, walked or jumped: the outboxes and the poster list
// are reused, the shards run inline, and a jump only moves the clock.
func TestShardedWindowAllocs(t *testing.T) {
	const lookahead = 50 * Microsecond
	s := NewSharded(2, lookahead)
	s.Shard(0).Every(lookahead/3, func() {})
	s.Shard(1).Every(lookahead/4, func() { s.Post(1, 0, lookahead, func() {}) })
	step := func() {
		end := s.now + lookahead
		s.runWindow(end)
		s.now = end
		s.barrier()
	}
	step() // size the reused buffers
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("steady-state window allocates %.1f/op, want 0", allocs)
	}
	if st := s.Stats(); st.ActiveShards != 2*st.Windows || st.MailWindows != st.Windows {
		t.Fatalf("stats %+v, want both shards active and mail in every window", st)
	}

	// A sparse rig: one event every seven windows, on the window grid.
	// Each Run walks its first window (set-up may have left work) and
	// the windows with the event, and jumps the rest.
	s = NewSharded(2, lookahead)
	s.Shard(1).Every(7*lookahead, func() {})
	runs := uint64(0)
	run := func() {
		runs++
		if err := s.Run(s.Now() + 70*lookahead); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("a span of jumped windows allocates %.1f/op, want 0", allocs)
	}
	if st := s.Stats(); st.Windows != 70*runs || st.ActiveShards != 10*runs || st.IdleWindows != 59*runs {
		t.Fatalf("stats %+v after %d runs, want 70 windows a run: 10 active, 59 jumped", st, runs)
	}
}

// TestShardedPanicIsError pins the failure mode of a panicking
// callback: the other active shards still finish the window, and Run
// returns a *ShardPanic naming the lowest-indexed shard that panicked
// in it.
func TestShardedPanicIsError(t *testing.T) {
	const lookahead = 50 * Microsecond
	s := NewSharded(4, lookahead)
	s.Shard(3).At(110*Microsecond, func() { panic("boom 3") })
	s.Shard(1).At(120*Microsecond, func() { panic(fmt.Errorf("boom %d", 1)) })
	finished := false
	s.Shard(2).At(140*Microsecond, func() { finished = true })
	err := s.Run(Millisecond)
	var p *ShardPanic
	if !errors.As(err, &p) {
		t.Fatalf("err = %v, want *ShardPanic", err)
	}
	if p.Shard != 1 || p.At != 120*Microsecond || p.Error() != "sim: shard 1 panicked at 120.000µs: boom 1" {
		t.Fatalf("panic = %+v (%q), want shard 1 at 120µs", p, p.Error())
	}
	if len(p.Stack) == 0 {
		t.Fatal("panic error carries no stack")
	}
	if !finished {
		t.Fatal("shard 2 did not finish the window in which shard 1 panicked")
	}
	if got := s.Now(); got != 100*Microsecond {
		t.Fatalf("coordinator at %v, want the barrier before the panicking window (100µs)", got)
	}
}

// TestShardedBarrierPanicIsError pins the barrier phase's failure
// mode: a panicking barrier task or OnBarrier hook ends Run with a
// *ShardPanic that names the task or marks the hook, and the hook's
// barrier runs no task after the panic.
func TestShardedBarrierPanicIsError(t *testing.T) {
	const lookahead = 50 * Microsecond
	for _, tc := range []struct {
		hook bool
		want string
	}{
		{false, `sim: barrier task "rebalance" panicked at 120.000µs: task boom`},
		{true, "sim: OnBarrier hook panicked at 150.000µs: hook boom"},
	} {
		s := NewSharded(4, lookahead)
		for _, i := range []int{1, 3} {
			s.Shard(i).Every(lookahead/3, func() {})
		}
		ran := 0
		s.EveryBarrier(lookahead, "tick", func() { ran++ })
		if tc.hook {
			s.OnBarrier(func(now Time) bool {
				if now == 150*Microsecond {
					panic("hook boom")
				}
				return false
			})
		} else {
			s.AtBarrier(120*Microsecond, "rebalance", func() { panic(fmt.Errorf("task boom")) })
		}
		err := s.Run(Millisecond)
		var p *ShardPanic
		if !errors.As(err, &p) {
			t.Fatalf("hook=%v: err = %v, want *ShardPanic", tc.hook, err)
		}
		if p.Error() != tc.want || p.Shard != -1 || p.Hook != tc.hook {
			t.Fatalf("barrier panic = %+v (%q), want %q", p, p.Error(), tc.want)
		}
		if len(p.Stack) == 0 {
			t.Fatalf("hook=%v: panic error carries no stack", tc.hook)
		}
		if tc.hook && ran != 2 {
			t.Fatalf("the hook's barrier ran tasks after it panicked (%d ticks)", ran)
		}
	}
}
