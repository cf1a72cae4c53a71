package cluster

import (
	"testing"
	"time"

	"repro/internal/sim"
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
