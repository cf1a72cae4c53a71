package watch_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/hypervisor"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/trace"
	"repro/internal/watch"
)

// bullyIncidents runs the incident golden's bully rig; a positive
// hostLog hands every host a log of that many records through TuneHV,
// zero leaves the cluster to supply it.
func bullyIncidents(t *testing.T, hostLog int) []*watch.Incident {
	t.Helper()
	v, _ := experiments.RigByName("bully")
	_, cfg, err := experiments.ScaleRig(v.Spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 5 * sim.Second
	cfg.Spans = span.NewTracer()
	if hostLog > 0 {
		tune := cfg.TuneHV
		cfg.TuneHV = func(hc *hypervisor.Config) {
			if tune != nil {
				tune(hc)
			}
			hc.Trace = trace.NewLog(hostLog)
		}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	incs := c.Watcher().Recorder().Incidents()
	if len(incs) == 0 {
		t.Fatal("bully rig captured no incident")
	}
	return incs
}

// bundleBytes renders every incident's JSON and Perfetto halves, with
// each host's dropped count zeroed when zeroDropped is set.
func bundleBytes(t *testing.T, incs []*watch.Incident, zeroDropped bool) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, inc := range incs {
		cp := *inc
		if zeroDropped {
			cp.Hosts = append([]watch.HostEvents(nil), inc.Hosts...)
			for i := range cp.Hosts {
				cp.Hosts[i].Dropped = 0
			}
		}
		if err := cp.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if err := cp.WriteTrace(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestHostLogSizeMovesOnlyDropped pins that a host ring's size shows
// in an incident bundle only through hosts[].dropped: a bundle reads
// the trailing 64 events per host, so a 64-record ring and a
// 4,096-record ring render the same events, series and spans, and the
// larger ring evicts no more. The cluster's own log must match one of
// the two byte for byte.
func TestHostLogSizeMovesOnlyDropped(t *testing.T) {
	small := bullyIncidents(t, 64)
	large := bullyIncidents(t, 4096)
	if len(small) != len(large) {
		t.Fatalf("64-record rings captured %d incidents, 4,096-record rings %d", len(small), len(large))
	}
	if !bytes.Equal(bundleBytes(t, small, true), bundleBytes(t, large, true)) {
		t.Fatal("bundles differ beyond hosts[].dropped")
	}
	evicted := false
	for i := range small {
		for j, h := range small[i].Hosts {
			evicted = evicted || h.Dropped > 0
			if d := large[i].Hosts[j].Dropped; d > h.Dropped {
				t.Errorf("incident %d %s: 4,096-record ring dropped %d > 64-record ring's %d",
					small[i].ID, h.Host, d, h.Dropped)
			}
		}
	}
	if !evicted {
		t.Fatal("no 64-record ring evicted anything: the rig no longer tells the sizes apart")
	}
	own := bundleBytes(t, bullyIncidents(t, 0), false)
	if !bytes.Equal(own, bundleBytes(t, small, false)) && !bytes.Equal(own, bundleBytes(t, large, false)) {
		t.Fatal("the cluster-supplied host log matches neither ring size")
	}
}
