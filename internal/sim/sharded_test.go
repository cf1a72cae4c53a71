package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shardedRig wires a ping-pong workload over n shards: every shard
// runs a local periodic event and posts cross-shard messages that
// re-post on arrival, exercising mailbox delivery, ordering, and the
// window/barrier machinery. Each shard appends to its own log
// (single-writer mid-window); logs are concatenated at the end.
func shardedRig(t *testing.T, shards, workers int, lookahead, horizon Time) (string, uint64) {
	t.Helper()
	s := NewSharded(shards, lookahead)
	s.SetWorkers(workers)
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
		i := i
		s.Shard(i).Every(37*Microsecond+Time(i)*Microsecond, func() {
			logs[i] = append(logs[i], fmt.Sprintf("%d tick at %v", i, s.Shard(i).Now()))
		})
		s.Shard(i).After(5*Microsecond, func() { hop(i, (i+3)%shards, 40) })
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
	return b.String(), s.Fired()
}

// TestShardedDeterministicAcrossWorkers is the core guarantee: the
// worker count is invisible to the simulation. Every shard's event log
// and the total fired count must be byte-identical for any pool size.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	const shards = 5
	base, baseFired := shardedRig(t, shards, 1, 50*Microsecond, 3*Millisecond)
	if !strings.Contains(base, "recv") || !strings.Contains(base, "tick") {
		t.Fatalf("rig produced no traffic:\n%s", base)
	}
	for _, workers := range []int{2, 4, 8} {
		got, fired := shardedRig(t, shards, workers, 50*Microsecond, 3*Millisecond)
		if got != base {
			t.Fatalf("workers=%d diverged from serial log", workers)
		}
		if fired != baseFired {
			t.Fatalf("workers=%d fired %d events, serial fired %d", workers, fired, baseFired)
		}
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

// TestShardedPoolGoroutinesExit pins the pool's lifetime: helpers
// start inside Run and are gone once it returns, on the normal path
// and on the ErrDeadlock path alike. A helper's last instructions run
// just after Run stops waiting for it, so the count gets a bounded
// moment to settle; a helper still parked on its channel never would.
func TestShardedPoolGoroutinesExit(t *testing.T) {
	settled := func(want int) int {
		got := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); got > want && time.Now().Before(deadline); got = runtime.NumGoroutine() {
			runtime.Gosched()
		}
		return got
	}
	before := runtime.NumGoroutine()
	shardedRig(t, 5, 4, 50*Microsecond, Millisecond)
	if got := settled(before); got > before {
		t.Fatalf("goroutines after Run = %d, before = %d", got, before)
	}
	s := NewSharded(3, 50*Microsecond)
	s.SetWorkers(3)
	for i := 0; i < 3; i++ {
		s.Shard(i).After(30*Microsecond, func() {})
	}
	if err := s.Run(Millisecond); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
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
		for i := 0; i < shards; i++ {
			i := i
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
		for _, i := range []int{1, 4} {
			i := i
			s.Shard(i).Every(17*Microsecond, func() {
				fmt.Fprintf(&b[i], "%d at %v\n", i, s.Shard(i).Now())
				s.Post(i, 5-i, 50*Microsecond, func() {
					fmt.Fprintf(&b[5-i], "%d from %d at %v\n", 5-i, i, s.Shard(5-i).Now())
				})
			})
		}
		if err := s.Run(Millisecond); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
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
	serial, serialFired := shardedRig(t, 3, 1, 50*Microsecond, Millisecond)
	for _, workers := range []int{2, 4, 8} {
		got, fired := shardedRig(t, 3, workers, 50*Microsecond, Millisecond)
		if got != serial || fired != serialFired {
			t.Fatalf("3 shards, workers=%d diverged from serial", workers)
		}
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
}
