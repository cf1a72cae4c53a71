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
	l := NewLog(1, Options{PerShard: 4096})
	r := l.Ring(0)
	rec := Record{At: 1, Kind: KindRoute, Subject: "srv0", Winner: "srv0"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.At = sim.Time(i)
		r.Add(rec)
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
// a few records each).
func BenchmarkLogMerge(b *testing.B) {
	l := NewLog(16, Options{PerShard: 64, Total: 1 << 10})
	rec := Record{Kind: KindRoute, Subject: "srv0"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 16; s++ {
			rec.At = sim.Time(i*16 + s)
			l.Ring(s).Add(rec)
		}
		l.Merge()
		if len(l.merged) >= 1<<10 {
			l.merged = l.merged[:0] // keep the bound from dominating
		}
	}
}

// routeRecords builds n route decisions shaped like the outage rig's:
// four scored replicas and a zone input, every tenth a failover.
func routeRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		at := sim.Time(i) * 250 * sim.Microsecond
		var cands []Candidate
		for j := 0; j < 4; j++ {
			out := (i + j) % 7
			cands = append(cands, Candidate{Name: "srv" + strconv.Itoa(j), Score: float64(out), Reason: "out=" + strconv.Itoa(out)})
		}
		inputs := []KV{{Key: "zone", Val: "z" + strconv.Itoa(i%2)}}
		if i%10 == 0 {
			inputs = append(inputs, KV{Key: "failover", Val: "1"})
		}
		recs[i] = Record{
			At: at, Seq: uint64(i), Kind: KindRoute, Chooser: "ctl",
			Subject: "srv0", Winner: "srv0", Detail: "req@" + at.String() + " to srv0 in z0",
			Candidates: cands, Inputs: inputs,
		}
	}
	return recs
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
