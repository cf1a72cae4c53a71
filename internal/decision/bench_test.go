package decision

import (
	"io"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// BenchmarkRingAdd is the enabled-path cost of one recorded decision
// (the Record itself is prebuilt here; producers additionally pay for
// candidate formatting, which Wants gates off when disabled).
func BenchmarkRingAdd(b *testing.B) {
	l := NewLog(1, Options{})
	r := l.Ring(0)
	rec := Record{At: 1, Kind: KindRoute, Subject: "srv0", Winner: "srv0"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.At = sim.Time(i)
		r.Add(rec, Body{})
		if len(l.pending) == 4096 {
			// Stand in for a barrier's Merge without paying for it.
			l.pending = l.pending[:0]
		}
	}
}

// BenchmarkRingWantsDisabled is the disabled-path cost every hook site
// pays: one mask test.
func BenchmarkRingWantsDisabled(b *testing.B) {
	var r *Ring
	b.ReportAllocs()
	b.ResetTimer()
	sink := false
	for i := 0; i < b.N; i++ {
		sink = r.Wants(KindRoute)
	}
	_ = sink
}

// BenchmarkLogMerge is one barrier merge of a typical batch (16 shards,
// a few records each), in steady state at the Total bound: each merge
// drops as many old records as it adds.
func BenchmarkLogMerge(b *testing.B) {
	l := NewLog(16, Options{Total: 1 << 10})
	rec := Record{Kind: KindRoute, Subject: "srv0"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 16; s++ {
			rec.At = sim.Time(i*16 + s)
			l.Ring(s).Add(rec, Body{})
		}
		l.Merge()
	}
}

// routeRecords builds n typed route decisions shaped like the outage
// rig's: four scored replicas in one of two zones, every tenth a
// failover.
func routeRecords(n int) []Record {
	l := NewLog(1, Options{})
	r := l.Ring(0)
	names := []string{"srv0", "srv1", "srv2", "srv3"}
	for i := 0; i < n; i++ {
		at := sim.Time(i) * 250 * sim.Microsecond
		loads := r.Loads(len(names))
		for j, name := range names {
			loads = append(loads, Load{Name: name, Out: int64((i + j) % 7)})
		}
		r.AddRoute(at, Route{Arrival: at, Zone: "z" + strconv.Itoa(i%2), Winner: "srv0", Failover: i%10 == 0, Loads: loads})
	}
	l.Merge()
	return l.Records()
}

// BenchmarkWriteJSON is the JSON bundle export of 4096 route decisions.
func BenchmarkWriteJSON(b *testing.B) {
	recs := routeRecords(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteJSON(io.Discard, recs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteChromeTrace is the Perfetto export of 4096 route
// decisions.
func BenchmarkWriteChromeTrace(b *testing.B) {
	recs := routeRecords(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, recs); err != nil {
			b.Fatal(err)
		}
	}
}
