package sim

import (
	"fmt"
	"testing"
)

// Engine hot-path microbenchmarks. These are the numbers the Makefile's
// bench target snapshots into BENCH_3.json and that bench-compare gates
// against: ns/op and allocs/op for schedule→fire, cancel, periodic
// re-arm, and a mixed churn workload approximating a simulation run.

// BenchmarkScheduleFire measures one-shot schedule + dispatch: the
// dominant engine operation in a simulation (every guest segment,
// timer, and SA round trip is at least one of these).
func BenchmarkScheduleFire(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(1, fn)
		eng.Step()
	}
	b.ReportMetric(float64(eng.Fired())*1e9/float64(b.Elapsed().Nanoseconds()+1), "events/sec")
}

// BenchmarkScheduleCancel measures schedule + cancel without firing:
// the defensive-timer pattern (slice timers, PLE windows, SA deadlines
// are mostly cancelled before they fire).
func BenchmarkScheduleCancel(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := eng.After(1, fn)
		eng.Cancel(ev)
	}
}

// BenchmarkPeriodicFire measures the periodic re-arm path (ticks,
// accounting, audits).
func BenchmarkPeriodicFire(b *testing.B) {
	eng := NewEngine()
	eng.Every(1, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkEngineChurn approximates a simulation's queue profile: a
// standing population of pending events with a mix of one-shot fires,
// cancellations, and periodic timers.
func BenchmarkEngineChurn(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	rng := NewRNG(1)
	// Standing population of 256 pending one-shots.
	for i := 0; i < 256; i++ {
		eng.After(Time(rng.Intn(1000)+1), fn)
	}
	eng.Every(64, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := eng.After(Time(rng.Intn(1000)+1), fn)
		if i%4 == 0 {
			eng.Cancel(ev)
		}
		eng.Step()
	}
}

// BenchmarkEngineDepth holds the queue at a standing depth while it
// schedules one-shots at uniformly random delays, cancels and replaces
// every fourth, and fires the earliest. Uniform delays land new events
// anywhere in the queue, the worst case for an insertion scan; shipped
// experiments keep under ~50 events pending per engine. The sweep
// records where the sorted pending slice stops beating a heap.
func BenchmarkEngineDepth(b *testing.B) {
	for _, depth := range []int{16, 48, 256, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			eng := NewEngine()
			fn := func() {}
			rng := NewRNG(1)
			span := 64 * depth
			for i := 0; i < depth; i++ {
				eng.After(Time(rng.Intn(span)+1), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := eng.After(Time(rng.Intn(span)+1), fn)
				if i%4 == 0 {
					eng.Cancel(ev)
					eng.After(Time(rng.Intn(span)+1), fn)
				}
				eng.Step()
			}
		})
	}
}

// BenchmarkShardedSparse measures the coordinator's per-window
// overhead when most shards are idle: 16 shards, events on only one,
// multi-worker pool. Before the idle-shard skip every window paid 16
// worker wake/park round-trips; with it, 15 of those collapse to an
// inline clock advance (ROADMAP item 1's noted remaining upside).
func BenchmarkShardedSparse(b *testing.B) {
	const lookahead = Time(250_000)
	sh := NewSharded(16, lookahead)
	sh.SetWorkers(4)
	busy := sh.Shard(1)
	busy.Every(lookahead/4, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	horizon := Time(0)
	for i := 0; i < b.N; i++ {
		horizon += lookahead
		if err := sh.Run(horizon); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sh.Fired())*1e9/float64(b.Elapsed().Nanoseconds()+1), "events/sec")
}

// spinWork burns a fixed slice of CPU, standing in for one event's
// handler (about 220 ns on a 2-core x86-64 host). It updates *x so the
// loop is not optimised away; each shard owns its own x.
func spinWork(x *uint64) {
	v := *x | 1
	for i := 0; i < 90; i++ {
		v ^= v << 13
		v ^= v >> 7
		v ^= v << 17
	}
	*x = v
}

// BenchmarkShardedWindowWork finds where the helper pool starts to pay:
// on the 17-shard layout of the 2z8h rig, two shards each carry a given
// number of due events per window, every event costing spinWork, and
// one op is one window. The workers=1 rows run inline; the workers=2
// rows force every window through the pool (the gate lowered to 0).
// Where workers=2 overtakes workers=1 is the gate in windowGate.
func BenchmarkShardedWindowWork(b *testing.B) {
	const shards, lookahead = 17, 250 * Microsecond
	for _, events := range []int{1, 16, 64, 128, 256, 512, 2048} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("events=%d/workers=%d", events, workers), func(b *testing.B) {
				sh := NewSharded(shards, lookahead)
				sh.SetWorkers(workers)
				sh.gate = 0
				busy := []*Engine{sh.Shard(3), sh.Shard(11)}
				// One cache line of spin state per busy shard, so
				// parallel windows share no memory.
				var sinks [2]struct {
					x uint64
					_ [56]byte
				}
				work := []func(){func() { spinWork(&sinks[0].x) }, func() { spinWork(&sinks[1].x) }}
				// Each barrier queues the next window's events, latest
				// first, so every insertion lands at the queue's tail
				// and the shards start each window with all of them due.
				load := func(now Time) {
					for j := events; j > 0; j-- {
						at := now + Time(j)*lookahead/Time(events)
						for k, e := range busy {
							e.At(at, work[k])
						}
					}
				}
				load(0)
				sh.OnBarrier(load)
				b.ReportAllocs()
				b.ResetTimer()
				if err := sh.Run(Time(b.N) * lookahead); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if st := sh.Stats(); workers > 1 && st.ParallelWindows != uint64(b.N) {
					b.Fatalf("%d of %d windows ran on the pool", st.ParallelWindows, b.N)
				}
			})
		}
	}
}
