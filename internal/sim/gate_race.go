//go:build race

package sim

// windowGate is 0 under the race detector, so every window with two or
// more active shards runs on the helper pool and the race and
// serial = sharded tests keep seeing concurrent shard windows.
const windowGate = 0
