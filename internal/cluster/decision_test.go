package cluster

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/decision"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestPlaceDecisionRecorded is the successor of the old debugPlace
// stderr dump: every interference-aware placement must leave a record
// carrying the full candidate set, and the recorded winner must be the
// minimum-score candidate — the policy's own invariant, now asserted
// instead of eyeballed.
func TestPlaceDecisionRecorded(t *testing.T) {
	cfg := shortConfig()
	cfg.Policy = InterferenceAware
	cfg.Decisions = &decision.Options{Kinds: []decision.Kind{decision.KindPlace}}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	recs := c.Decisions().Records()
	if len(recs) != len(cfg.VMs) {
		t.Fatalf("%d place records for %d admissions", len(recs), len(cfg.VMs))
	}
	for i := range recs {
		r := &recs[i]
		if r.Kind != decision.KindPlace || r.Chooser != "ctl" {
			t.Fatalf("record %d: kind=%v chooser=%q", i, r.Kind, r.Chooser)
		}
		cands := r.Candidates()
		if len(cands) != cfg.Hosts {
			t.Fatalf("record %d for %s has %d candidates, want %d", i, r.Subject, len(cands), cfg.Hosts)
		}
		best := cands[0]
		for _, cand := range cands[1:] {
			if cand.Score < best.Score {
				best = cand
			}
		}
		if r.Winner != best.Name {
			t.Fatalf("record %d: winner %q but min-score candidate is %q (%.3f)", i, r.Winner, best.Name, best.Score)
		}
		if pol, _ := r.Input("policy"); pol != "interference-aware" {
			t.Fatalf("record %d: policy input %q", i, pol)
		}
	}
}

// TestClusterDecisionLogShardInvariant pins the decision log's
// determinism at the cluster level: two runs of one rig, each merging
// the shards' records at every barrier, export byte-identical logs.
func TestClusterDecisionLogShardInvariant(t *testing.T) {
	run := func() []byte {
		cfg := DefaultConfig()
		cfg.Hosts = 4
		cfg.Topology = topology.Uniform(2, 2)
		cfg.Policy = InterferenceAware
		cfg.Duration = 4 * sim.Second
		cfg.Drain = sim.Second
		cfg.VMs = StandardMix(4, 2, 2, 2, 400*sim.Millisecond)
		cfg.Decisions = &decision.Options{Kinds: decision.ControlKinds()}
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := c.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		var buf bytes.Buffer
		if err := decision.WriteJSON(&buf, c.Decisions().Records(), c.Decisions().Dropped()); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatalf("decision log differs between two runs (%d vs %d bytes)", len(first), len(second))
	}
	if len(first) == 0 {
		t.Fatal("empty decision log")
	}
}

// TestClusterDecisionsDisabledStaysNil: runs without Config.Decisions
// expose a nil log and record nothing.
func TestClusterDecisionsDisabledStaysNil(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 2 * sim.Second
	cfg.Drain = sim.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.Decisions() != nil {
		t.Fatal("Decisions() non-nil without Config.Decisions")
	}
	if recs := c.Decisions().Records(); recs != nil {
		t.Fatalf("nil log returned %d records", len(recs))
	}
}

// Paired throughput benchmarks for the decision log's cluster cost:
// the same default rig with the audit off (hook sites pay one nil
// test) and on (every control-plane choice recorded with candidates).
func benchClusterDecisions(b *testing.B, opt *decision.Options) {
	b.Helper()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Decisions = opt
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

func BenchmarkClusterNoDecisions(b *testing.B) { benchClusterDecisions(b, nil) }
func BenchmarkClusterWithDecisions(b *testing.B) {
	benchClusterDecisions(b, &decision.Options{Kinds: decision.ControlKinds()})
}

// TestRecordRouteAllocationFree pins the typed route record: once the
// control ring and its candidate arena have grown, auditing a routed or
// held-back request allocates nothing (an arena chunk every thousand
// candidates amortizes to zero per record).
func TestRecordRouteAllocationFree(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 2 * sim.Second
	cfg.Drain = sim.Second
	cfg.Decisions = &decision.Options{Kinds: decision.ControlKinds()}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	z := c.zones[0]
	if len(z.servers) == 0 {
		t.Fatal("no servers in zone 0")
	}
	req := workload.Request{Arrival: c.ctl.Now()}
	route := func() {
		c.recordRoute(req, z, z.servers[0], true)
		c.recordRouteBuffered(req, z)
		c.recordRouteBuffered(req, nil)
	}
	for i := 0; i < 4096; i++ {
		route() // grow the ring to its bound
	}
	if allocs := testing.AllocsPerRun(100, route); allocs != 0 {
		t.Fatalf("route records allocate %v times per request, want 0", allocs)
	}
}

// TestRouteLoadsOneWindowStale pins the router's load view: a request
// a replica serves in window k shows in the route records' out= loads
// from window k+1 on, and not before. The ground truth is each gate's
// own served count, sampled at every barrier; a route record in the
// window after barrier b must read routed-so-far minus the count at b.
func TestRouteLoadsOneWindowStale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 2
	cfg.Duration = 2 * sim.Second
	cfg.Drain = 500 * sim.Millisecond
	cfg.VMs = []VMSpec{
		StandardVM("srv0", KindServer, 2, 0),
		StandardVM("srv1", KindServer, 2, 0),
		StandardVM("ant0", KindAntagonist, 2, 0),
	}
	cfg.Decisions = &decision.Options{Kinds: []decision.Kind{decision.KindRoute}}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Registered after New, so it runs after the cluster's own barrier
	// hook, with every fact of the window just ended already folded.
	var barriers []sim.Time
	var served []map[string]int64
	c.sh.OnBarrier(func(now sim.Time) bool {
		m := map[string]int64{}
		for _, hd := range c.servers {
			for _, g := range hd.gates {
				m[hd.instName()] += g.Served()
			}
		}
		barriers = append(barriers, now)
		served = append(served, m)
		return false
	})
	if _, err := c.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	routed := map[string]int64{}
	checked, sameWindow := 0, 0
	for _, r := range c.Decisions().Records() {
		if r.Winner == "" {
			t.Fatalf("request held back at %v: the rig admits both replicas before the first arrival", r.At)
		}
		// The record's window runs from the last barrier before it.
		j, _ := slices.BinarySearch(barriers, r.At)
		if j == 0 || j == len(barriers) {
			t.Fatalf("route record at %v outside the barrier grid", r.At)
		}
		seen := served[j-1]
		for _, cand := range r.Candidates() {
			want := routed[cand.Name] - seen[cand.Name]
			if got := int64(cand.Score); got != want {
				t.Fatalf("route at %v: %s out=%d, want %d (routed %d, served by the barrier at %v %d)",
					r.At, cand.Name, got, want, routed[cand.Name], barriers[j-1], seen[cand.Name])
			}
			if served[j][cand.Name] != seen[cand.Name] {
				sameWindow++ // a same-window view would have read lower
			}
			checked++
		}
		routed[r.Winner]++
	}
	if checked == 0 || sameWindow == 0 {
		t.Fatalf("%d candidate loads checked, %d with a serve in their own window: the rig pins nothing", checked, sameWindow)
	}
}
