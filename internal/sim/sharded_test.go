package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// weigh queues n periodic events of period d on e, each running fn, so
// every window that reaches their due time carries n more due events.
// Rigs that must exercise the helper pool weigh their shards until the
// due events outside the busiest one reach windowGate; lighter windows
// run inline. Under -race the gate is zero and so is the extra load.
func weigh(e *Engine, n int, d Time, fn func()) {
	for j := 0; j < n; j++ {
		e.Every(d, fn)
	}
}

// gateShare is the load per shard that, spread over every shard of a
// rig, puts windowGate due events outside the busiest one.
func gateShare(shards int) int {
	return (windowGate + shards - 2) / (shards - 1)
}

// shardedRig wires a ping-pong workload over n shards: every shard
// runs a local periodic event and posts cross-shard messages that
// re-post on arrival, exercising mailbox delivery, ordering, and the
// window/barrier machinery. Each shard appends to its own log
// (single-writer mid-window); logs are concatenated at the end. Every
// shard also carries its gateShare of events per lookahead, counted
// into its tick lines, so the windows are heavy enough to wake the
// pool.
func shardedRig(t *testing.T, shards, workers int, lookahead, horizon Time) (string, *ShardedEngine) {
	t.Helper()
	s := NewSharded(shards, lookahead)
	s.SetWorkers(workers)
	logs := make([][]string, shards)
	load := make([]int, shards)
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
			logs[i] = append(logs[i], fmt.Sprintf("%d tick at %v after %d loads", i, s.Shard(i).Now(), load[i]))
		})
		s.Shard(i).After(5*Microsecond, func() { hop(i, (i+3)%shards, 40) })
		weigh(s.Shard(i), gateShare(shards), lookahead, func() { load[i]++ })
	}
	barriers := 0
	s.OnBarrier(func(now Time) { barriers++ })
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

// requirePool fails unless a multi-worker run sent windows through the
// helper pool, so a serial = sharded comparison never silently turns
// serial vs serial.
func requirePool(t *testing.T, s *ShardedEngine) {
	t.Helper()
	if st := s.Stats(); s.Workers() > 1 && st.ParallelWindows == 0 {
		t.Fatalf("workers=%d ran no parallel window (stats %+v)", s.Workers(), st)
	}
}

// TestShardedDeterministicAcrossWorkers is the core guarantee: the
// worker count is invisible to the simulation. Every shard's event log
// and the total fired count must be byte-identical for any pool size.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	const shards = 5
	base, serial := shardedRig(t, shards, 1, 50*Microsecond, 3*Millisecond)
	if !strings.Contains(base, "recv") || !strings.Contains(base, "tick") {
		t.Fatalf("rig produced no traffic:\n%s", base)
	}
	if st := serial.Stats(); st.ParallelWindows != 0 || st.InlineWindows == 0 {
		t.Fatalf("serial run stats %+v, want inline windows only", st)
	}
	for _, workers := range []int{2, 4, 8} {
		got, s := shardedRig(t, shards, workers, 50*Microsecond, 3*Millisecond)
		if got != base {
			t.Fatalf("workers=%d diverged from serial log", workers)
		}
		if s.Fired() != serial.Fired() {
			t.Fatalf("workers=%d fired %d events, serial fired %d", workers, s.Fired(), serial.Fired())
		}
		requirePool(t, s)
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
}

// TestShardedMailboxOrdering pins the canonical merge key: two posts
// delivered to one shard at the same virtual time fire in source-shard
// order regardless of post timing inside the window.
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

// settled returns the goroutine count once it falls to want, or after
// a second. A helper's last instructions run just after Run stops
// waiting for it, so the count gets a bounded moment to settle; a
// helper still parked on its channel never would.
func settled(want int) int {
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); got > want && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		runtime.Gosched()
	}
	return got
}

// TestShardedPoolGoroutinesExit pins the pool's lifetime: helpers
// start inside Run and are gone once it returns, on the normal path
// and on the ErrDeadlock path alike.
func TestShardedPoolGoroutinesExit(t *testing.T) {
	before := runtime.NumGoroutine()
	_, rig := shardedRig(t, 5, 4, 50*Microsecond, Millisecond)
	requirePool(t, rig)
	if got := settled(before); got > before {
		t.Fatalf("goroutines after Run = %d, before = %d", got, before)
	}
	s := NewSharded(3, 50*Microsecond)
	s.SetWorkers(3)
	for i := 0; i < 3; i++ {
		for j := 0; j <= windowGate; j++ {
			s.Shard(i).After(30*Microsecond, func() {})
		}
	}
	if err := s.Run(Millisecond); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	requirePool(t, s)
	for i := 0; i < 3; i++ {
		if got := s.Shard(i).Now(); got != 50*Microsecond {
			t.Fatalf("shard %d at %v after deadlock, want the last barrier 50µs", i, got)
		}
	}
	if s.pool != nil {
		t.Fatal("pool still attached after Run returned")
	}
	if got := settled(before); got > before {
		t.Fatalf("goroutines after deadlocked Run = %d, before = %d", got, before)
	}
}

// TestShardedRunTwiceMatchesSerial runs one engine to the horizon in
// two Run calls — the pool is torn down and rebuilt in between — and
// requires the same log as a single serial Run. The split lands on a
// window boundary, so both schedules see the same windows.
func TestShardedRunTwiceMatchesSerial(t *testing.T) {
	const shards, horizon = 4, 2 * Millisecond
	run := func(workers int, stops ...Time) []string {
		s := NewSharded(shards, 50*Microsecond)
		s.SetWorkers(workers)
		logs := make([][]string, shards)
		load := make([]int, shards)
		for i := 0; i < shards; i++ {
			weigh(s.Shard(i), gateShare(shards), 50*Microsecond, func() { load[i]++ })
			s.Shard(i).Every(23*Microsecond+Time(i)*Microsecond, func() {
				logs[i] = append(logs[i], fmt.Sprintf("tick %v after %d loads", s.Shard(i).Now(), load[i]))
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
			requirePool(t, s)
		}
		var out []string
		for _, l := range logs {
			out = append(out, l...)
		}
		return out
	}
	want := strings.Join(run(1, horizon), "\n")
	if got := strings.Join(run(2, horizon/2, horizon), "\n"); got != want {
		t.Fatal("two pooled Runs diverged from one serial Run")
	}
}

// TestShardedWorkersMatchSerial covers pool widths at and beyond the
// number of active shards: with two busy shards out of six, a pool of
// 8 never has more than two shards to claim per window.
func TestShardedWorkersMatchSerial(t *testing.T) {
	const shards = 6
	rig := func(workers int) (string, uint64) {
		s := NewSharded(shards, 50*Microsecond)
		s.SetWorkers(workers)
		var b [shards]strings.Builder
		var load [shards]int
		for _, i := range []int{1, 4} {
			weigh(s.Shard(i), windowGate, 50*Microsecond, func() { load[i]++ })
			s.Shard(i).Every(17*Microsecond, func() {
				fmt.Fprintf(&b[i], "%d at %v after %d loads\n", i, s.Shard(i).Now(), load[i])
				s.Post(i, 5-i, 50*Microsecond, func() {
					fmt.Fprintf(&b[5-i], "%d from %d at %v\n", 5-i, i, s.Shard(5-i).Now())
				})
			})
		}
		if err := s.Run(Millisecond); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requirePool(t, s)
		var all strings.Builder
		for i := range b {
			all.WriteString(b[i].String())
		}
		return all.String(), s.Fired()
	}
	base, baseFired := rig(1)
	for _, workers := range []int{2, 4, 8} {
		got, fired := rig(workers)
		if got != base || fired != baseFired {
			t.Fatalf("workers=%d diverged from serial (fired %d vs %d)", workers, fired, baseFired)
		}
	}
	// The wide rig too: more shards than workers and vice versa.
	serial, one := shardedRig(t, 3, 1, 50*Microsecond, Millisecond)
	for _, workers := range []int{2, 4, 8} {
		got, s := shardedRig(t, 3, workers, 50*Microsecond, Millisecond)
		if got != serial || s.Fired() != one.Fired() {
			t.Fatalf("3 shards, workers=%d diverged from serial", workers)
		}
		requirePool(t, s)
	}
}

// TestShardedWindowAllocs pins the steady-state cost of a parallel
// window at zero allocations: the helpers are already parked, the
// active set and merge buffer are reused, and waking costs a channel
// token, not a goroutine.
func TestShardedWindowAllocs(t *testing.T) {
	const lookahead = 50 * Microsecond
	s := NewSharded(2, lookahead)
	s.SetWorkers(2)
	s.Shard(0).Every(lookahead/3, func() {})
	s.Shard(1).Every(lookahead/4, func() {})
	for i := 0; i < 2; i++ {
		weigh(s.Shard(i), windowGate, lookahead, func() {})
	}
	step := func() {
		end := s.now + lookahead
		s.runWindow(end)
		s.now = end
		s.barrier()
	}
	step() // start the pool and size the reused buffers
	defer s.stopPool()
	if s.pool == nil {
		t.Fatal("two busy shards on two workers did not start the pool")
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("steady-state 2-worker window allocates %.1f/op, want 0", allocs)
	}
	if st := s.Stats(); st.ParallelWindows != st.Windows {
		t.Fatalf("%d of %d windows ran on the pool, want all", st.ParallelWindows, st.Windows)
	}
}

// gateRig runs two busy shards out of 17, each with perShard due
// events per window plus a tick that logs its load count, and reports
// the log and whether any barrier saw the helper pool running.
func gateRig(t *testing.T, workers, perShard int) (string, *ShardedEngine, bool) {
	t.Helper()
	const lookahead = 50 * Microsecond
	s := NewSharded(17, lookahead)
	s.SetWorkers(workers)
	var b [17]strings.Builder
	var load [17]int
	for _, i := range []int{3, 11} {
		weigh(s.Shard(i), perShard, lookahead, func() { load[i]++ })
		s.Shard(i).Every(lookahead/2, func() {
			fmt.Fprintf(&b[i], "%d at %v after %d loads\n", i, s.Shard(i).Now(), load[i])
		})
	}
	pooled := false
	s.OnBarrier(func(Time) { pooled = pooled || s.pool != nil })
	if err := s.Run(Millisecond); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var all strings.Builder
	for i := range b {
		all.WriteString(b[i].String())
	}
	return all.String(), s, pooled
}

// TestShardedLightWindowsStayInline pins the gate's cheap side: two
// active shards with a handful of due events each never wake a helper,
// however many workers the engine may use.
func TestShardedLightWindowsStayInline(t *testing.T) {
	if windowGate == 0 {
		t.Skip("race builds send every multi-shard window through the pool")
	}
	for _, workers := range []int{2, 8} {
		_, s, pooled := gateRig(t, workers, 2)
		st := s.Stats()
		if pooled || st.ParallelWindows != 0 {
			t.Fatalf("workers=%d: light windows started the pool (stats %+v)", workers, st)
		}
		if st.InlineWindows != st.Windows || st.ActiveShards != 2*st.Windows {
			t.Fatalf("workers=%d: stats %+v, want every window inline with two active shards", workers, st)
		}
	}
}

// TestShardedHeavyWindowsUsePool pins the other side: the same rig
// with windowGate due events per busy shard wakes the pool on every
// window and still matches the serial log at every width.
func TestShardedHeavyWindowsUsePool(t *testing.T) {
	base, serial, _ := gateRig(t, 1, windowGate)
	for _, workers := range []int{2, 4, 8} {
		got, s, pooled := gateRig(t, workers, windowGate)
		if got != base || s.Fired() != serial.Fired() {
			t.Fatalf("workers=%d diverged from serial (fired %d vs %d)", workers, s.Fired(), serial.Fired())
		}
		if st := s.Stats(); !pooled || st.ParallelWindows != st.Windows {
			t.Fatalf("workers=%d: stats %+v, want every window on the pool", workers, st)
		}
	}
}

// TestShardedPanicIsError pins the failure mode of a panicking
// callback: whichever goroutine ran the shard, Run returns the same
// *ShardPanic naming the lowest-indexed shard that panicked in the
// window, and no helper outlives the call.
func TestShardedPanicIsError(t *testing.T) {
	const lookahead = 50 * Microsecond
	run := func(workers int) (*ShardPanic, ShardedStats) {
		s := NewSharded(4, lookahead)
		s.SetWorkers(workers)
		for _, i := range []int{1, 3} {
			weigh(s.Shard(i), windowGate, lookahead, func() {})
		}
		s.Shard(3).At(110*Microsecond, func() { panic("boom 3") })
		s.Shard(1).At(120*Microsecond, func() { panic(fmt.Errorf("boom %d", 1)) })
		err := s.Run(Millisecond)
		var p *ShardPanic
		if !errors.As(err, &p) {
			t.Fatalf("workers=%d: err = %v, want *ShardPanic", workers, err)
		}
		return p, s.Stats()
	}
	before := runtime.NumGoroutine()
	want, _ := run(1)
	if want.Shard != 1 || want.At != 120*Microsecond || want.Error() != "sim: shard 1 panicked at 120.000µs: boom 1" {
		t.Fatalf("serial panic = %+v (%q), want shard 1 at 120µs", want, want.Error())
	}
	if len(want.Stack) == 0 {
		t.Fatal("panic error carries no stack")
	}
	got, st := run(2)
	if got.Error() != want.Error() || got.Shard != want.Shard || got.At != want.At || fmt.Sprint(got.Value) != fmt.Sprint(want.Value) {
		t.Fatalf("workers=2 panic %q, serial %q", got.Error(), want.Error())
	}
	if st.InlineWindows != 0 || st.ParallelWindows == 0 {
		t.Fatalf("workers=2 stats %+v, want every busy window up to the panic on the pool", st)
	}
	if got := settled(before); got > before {
		t.Fatalf("goroutines after panicked Runs = %d, before = %d", got, before)
	}
}

// TestShardedBarrierPanicIsError pins the barrier phase's failure
// mode: a panicking barrier task or OnBarrier hook ends Run with a
// *ShardPanic that names the task or marks the hook, the same at one
// and two workers, and no helper outlives the call.
func TestShardedBarrierPanicIsError(t *testing.T) {
	const lookahead = 50 * Microsecond
	run := func(workers int, hook bool) *ShardPanic {
		s := NewSharded(4, lookahead)
		s.SetWorkers(workers)
		for _, i := range []int{1, 3} {
			weigh(s.Shard(i), windowGate, lookahead, func() {})
			s.Shard(i).Every(lookahead/3, func() {})
		}
		ran := 0
		s.EveryBarrier(lookahead, "tick", func() { ran++ })
		if hook {
			s.OnBarrier(func(now Time) {
				if now == 150*Microsecond {
					panic("hook boom")
				}
			})
		} else {
			s.AtBarrier(120*Microsecond, "rebalance", func() { panic(fmt.Errorf("task boom")) })
		}
		err := s.Run(Millisecond)
		var p *ShardPanic
		if !errors.As(err, &p) {
			t.Fatalf("workers=%d hook=%v: err = %v, want *ShardPanic", workers, hook, err)
		}
		if len(p.Stack) == 0 {
			t.Fatalf("workers=%d hook=%v: panic error carries no stack", workers, hook)
		}
		if hook && ran != 2 {
			t.Fatalf("workers=%d: the hook's barrier ran tasks after it panicked (%d ticks)", workers, ran)
		}
		if st := s.Stats(); workers > 1 && st.ParallelWindows == 0 {
			t.Fatalf("workers=%d: stats %+v, want the helper pool running", workers, st)
		}
		return p
	}
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		hook bool
		want string
	}{
		{false, `sim: barrier task "rebalance" panicked at 120.000µs: task boom`},
		{true, "sim: OnBarrier hook panicked at 150.000µs: hook boom"},
	} {
		serial := run(1, tc.hook)
		if serial.Error() != tc.want || serial.Shard != -1 || serial.Hook != tc.hook {
			t.Fatalf("serial barrier panic = %+v (%q), want %q", serial, serial.Error(), tc.want)
		}
		pooled := run(2, tc.hook)
		if pooled.Error() != serial.Error() || pooled.Task != serial.Task || pooled.At != serial.At {
			t.Fatalf("workers=2 barrier panic %q, serial %q", pooled.Error(), serial.Error())
		}
	}
	if got := settled(before); got > before {
		t.Fatalf("goroutines after panicked Runs = %d, before = %d", got, before)
	}
}
