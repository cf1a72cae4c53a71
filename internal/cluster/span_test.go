package cluster

import (
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/span"
)

// TestClusterSpansConserveAcrossMigrations threads the tracer through
// the full cluster stack — router admission, replica queues, guest
// scheduling, and live-migration carry-over — and checks that every
// request is accounted for and every finished span conserves exactly.
// The 10 ms service time keeps the replica queues deep enough that the
// pre-copy does not drain them, so each switchover carries requests
// to the destination (completeMigration's re-submit path), where the
// span finishes straight into the tracer that minted it.
func TestClusterSpansConserveAcrossMigrations(t *testing.T) {
	tr := span.NewTracer()
	cfg := DefaultConfig()
	cfg.Duration = 8 * sim.Second
	cfg.Service = 10 * sim.Millisecond
	cfg.Strategy = hypervisor.StrategyIRS
	cfg.Policy = InterferenceAware
	cfg.Migration = true
	cfg.Invariants = true
	cfg.Spans = tr
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("invariant violations: %d", res.Violations)
	}

	spans := tr.Finished()
	// Every generated request minted a span; served ones finished it.
	if int64(len(spans)) != res.Served {
		t.Fatalf("finished spans %d != served requests %d", len(spans), res.Served)
	}
	if int64(len(spans)+tr.Open()) != res.Generated {
		t.Fatalf("spans %d + open %d != generated %d", len(spans), tr.Open(), res.Generated)
	}
	if len(spans) == 0 {
		t.Fatal("no traced requests")
	}
	migrSpans := 0
	for _, sp := range spans {
		if sp.ConservationError() != 0 {
			t.Fatalf("span #%d: conservation error %v", sp.ID, sp.ConservationError())
		}
		if sp.Totals()[span.CatVMMigr] > 0 {
			migrSpans++
		}
	}
	// The requests a switchover carried must wear the downtime as
	// vm-migr blame.
	if res.Migrations == 0 {
		t.Fatal("no migration happened; the carry path went untested")
	}
	if migrSpans == 0 {
		t.Fatalf("%d migrations but no span carries vm-migr time", res.Migrations)
	}
	an := span.Analyze(spans, 0)
	if an.Violations != 0 {
		t.Fatalf("analyzer found %d violations", an.Violations)
	}
}
