//go:build race

package cluster

import (
	"testing"

	"repro/internal/sim"
)

// TestRaceRackRunsParallelWindows keeps the race job honest. Outside
// -race, light windows run inline and the detector would see no
// concurrent host windows; race builds lower the sim package's window
// gate to zero, so a two-worker rack must wake the helper pool.
func TestRaceRackRunsParallelWindows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 2 * sim.Second
	cfg.Drain = 500 * sim.Millisecond
	cfg.Shards = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := c.sh.Stats(); st.ParallelWindows == 0 {
		t.Fatalf("two-worker rack ran no parallel window under -race (stats %+v)", st)
	}
}
