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
// overhead when most shards are idle: 16 shards, events on only one.
// Every window partitions all 16 shards, and the 15 idle ones only have
// their clock advanced.
func BenchmarkShardedSparse(b *testing.B) {
	const lookahead = Time(250_000)
	sh := NewSharded(16, lookahead)
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
