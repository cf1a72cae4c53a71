//go:build !race

package sim

// windowGate is the least number of due events outside a window's
// busiest shard that wakes the helper pool; lighter windows run inline
// on the coordinator goroutine. The busiest shard runs on one worker
// either way, so only the rest of the window can pay for a helper's
// wake/park round trip. BenchmarkShardedWindowWork on a 2-core host
// (two busy shards of 17, ~230 ns events) has two workers no faster
// than one up to 256 due events per shard and 1.22x faster at 512;
// the gate sits at the first size that wins.
const windowGate = 512
