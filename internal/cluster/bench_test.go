package cluster

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/decision"
	"repro/internal/sim"
	"repro/internal/span"
)

// Simulation-throughput benchmarks: how many engine events per
// wall-clock second the cluster dispatches on the sharded coordinator.
// events/sec is the progress metric the benchjson gate tracks (higher
// is better), so a coordinator or mailbox regression shows up as a
// throughput drop.

// BenchmarkClusterSerial runs the default rig and reports events/sec.
func BenchmarkClusterSerial(b *testing.B) {
	var events uint64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		res, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		wall += time.Since(start)
		events += res.Events
	}
	if wall > 0 {
		b.ReportMetric(float64(events)/wall.Seconds(), "events/sec")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// BenchmarkClusterShardedRack scales the rig to a 16-host rack: 17
// shards, most of them idle in any one window.
func BenchmarkClusterShardedRack(b *testing.B) {
	var events uint64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Hosts = 16
		cfg.Duration = 5 * sim.Second
		cfg.Drain = sim.Second
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		res, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		wall += time.Since(start)
		events += res.Events
	}
	if wall > 0 {
		b.ReportMetric(float64(events)/wall.Seconds(), "events/sec")
	}
}

// BenchmarkAuditOverhead measures what the audit instruments cost, in
// one process so that host drift hits both sides alike. Each iteration
// runs the default rig twice, plain and audited (the decision log
// recording the control-plane kinds, and the span tracer), in an order
// that alternates between iterations. It reports:
//
//   - audit-ratio: the median over iterations of the audited run's
//     wall time over the plain run's (Run only, not New);
//   - audited-B/req and plain-B/req: the heap each run still holds
//     after it ends and runtime.GC, with its cluster, decision log and
//     tracer alive, per generated request.
func BenchmarkAuditOverhead(b *testing.B) {
	type outcome struct {
		wall     time.Duration
		retained float64 // bytes per generated request
	}
	run := func(audit bool) outcome {
		cfg := DefaultConfig()
		var tr *span.Tracer
		if audit {
			cfg.Decisions = &decision.Options{Kinds: decision.ControlKinds()}
			tr = span.NewTracer()
			cfg.Spans = tr
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		res, err := c.Run()
		wall := time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(c)
		runtime.KeepAlive(tr)
		return outcome{wall: wall, retained: float64(int64(ms.HeapAlloc)-int64(before)) / float64(res.Generated)}
	}
	ratios := make([]float64, 0, b.N)
	var audited, plain float64
	for i := 0; i < b.N; i++ {
		var on, off outcome
		if i%2 == 0 {
			off, on = run(false), run(true)
		} else {
			on, off = run(true), run(false)
		}
		ratios = append(ratios, on.wall.Seconds()/off.wall.Seconds())
		audited += on.retained
		plain += off.retained
	}
	slices.Sort(ratios)
	median := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		median = (ratios[len(ratios)/2-1] + median) / 2
	}
	b.ReportMetric(median, "audit-ratio")
	b.ReportMetric(audited/float64(b.N), "audited-B/req")
	b.ReportMetric(plain/float64(b.N), "plain-B/req")
}
