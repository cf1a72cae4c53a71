package decision_test

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"testing"

	"repro/internal/decision"
	"repro/internal/jsonref"
	"repro/internal/sim"
)

// FuzzWriteJSON holds the streaming bundle encoder to encoding/json's
// rendering (jsonref.DecisionJSON) byte for byte: every string field
// and candidate score is fuzzed, records with and without candidates,
// inputs and optional fields are mixed, and a NaN or ±Inf score must
// make both encoders fail.
func FuzzWriteJSON(f *testing.F) {
	type seed struct {
		s1, s2, s3, s4 string
		score          float64
		at             int64
		shape          uint8
	}
	for _, s := range []seed{
		{"srv0", "out=3", "zone", "z1", 3, int64(6 * sim.Second), 0xff},
		{`<a href="x">&amp;</a>`, `back\slash "quoted"`, "k", "k", -0.0, 1500, 0x0f},
		{"\x00\x01\x07\b\f\n\r\t\x1f\x7f", "\xff\xfe\xc3", "\xe2\x80", "\xe2\x80\xa8\xe2\x80\xa9", 1e-7, -5, 0xf0},
		{"µs ünïcode", "", "", "", 1e21, int64(2500 * sim.Microsecond), 0x33},
		{"a", "b", "c", "d", 1e20, 999, 0x01},
		{"a", "b", "c", "d", 123456.789e-12, 1, 0x02},
		{"a", "b", "c", "d", math.MaxFloat64, math.MaxInt64, 0xfe},
		{"a", "b", "c", "d", 5e-324, 0, 0x7f},
		{"nan", "b", "c", "d", math.NaN(), 7, 0xff},
		{"inf", "b", "c", "d", math.Inf(1), 7, 0xff},
		{"-inf", "b", "c", "d", math.Inf(-1), 7, 0xff},
	} {
		f.Add(s.s1, s.s2, s.s3, s.s4, s.score, s.at, s.shape)
	}
	f.Fuzz(func(t *testing.T, s1, s2, s3, s4 string, score float64, at int64, shape uint8) {
		pick := func(bit uint, s string) string {
			if shape&(1<<bit) != 0 {
				return s
			}
			return ""
		}
		r := decision.Record{
			At: sim.Time(at), Shard: int(shape), Seq: uint64(at) * 3, Kind: decision.Kind(shape % 12),
			Chooser: s1, Subject: pick(0, s2), Winner: pick(1, s3), Body: &decision.Body{Detail: pick(2, s4)},
		}
		if shape&(1<<3) != 0 {
			r.Body.Candidates = []decision.Candidate{{Name: s1, Score: score, Reason: pick(4, s2)}, {Name: s3, Score: -score}}
		}
		if shape&(1<<5) != 0 {
			// Repeated keys: the exported object keeps each key's last value.
			r.Body.Inputs = []decision.KV{{Key: s3, Val: s4}, {Key: s1, Val: s2}, {Key: s3, Val: s1}}
		}
		recs := []decision.Record{r, {At: sim.Time(at) / 2, Kind: decision.KindRoute, Chooser: s4}}
		if shape&(1<<6) != 0 {
			recs = recs[:0]
		}
		var got, want bytes.Buffer
		gotErr := decision.WriteJSON(&got, recs, uint64(shape))
		wantErr := jsonref.DecisionJSON(&want, recs, uint64(shape))
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("WriteJSON error %v, encoding/json error %v", gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteJSON differs from encoding/json.\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want.Bytes())
		}
	})
}

// FuzzRouteRecords holds typed route records, whose names, reasons,
// inputs and detail lines are rendered on read, to a reference
// rendering (routeBody): a random mix of routed requests (1-8
// replicas with migration generations, failovers) and held-back ones
// (no routable zone, no live replica) goes through Ring.AddRoute and
// Log.Merge. Each merged record's Detail, Candidates and Inputs must
// equal a Body built here from the Route operands, and WriteJSON and
// WriteChromeTrace must equal jsonref's encoding/json rendering of
// plain records carrying those Bodies, byte for byte.
func FuzzRouteRecords(f *testing.F) {
	for _, s := range []struct {
		vm, zone, chooser string
		arrival, out      int64
		ops               []byte
	}{
		{"srv", "z0", "ctl", int64(6 * sim.Second), 3, []byte{0x13, 0x42, 0x05, 0x87, 0x20}},
		{"srv", "z1", "ctl", 0, 0, []byte{0x01, 0x02, 0x03}},
		{`<b>&"x"\`, "\xe2\x80", "\xa8\xff", -1500, -7, []byte{0xff, 0x7e, 0x3d, 0x00}},
		{"µs ✓", "\u2028", "", math.MaxInt64, math.MinInt64, []byte{0xf7, 0x11}},
		{"a", "", "c", 999, 1 << 60, []byte{0x08, 0x18, 0x28}},
		// The integer score and margin path at its edges: counts of 0
		// and 1, the last integer below 2^53 (larger candidates and
		// margins cross it and take the float path), and large values.
		{"srv", "z0", "ctl", 1, 0, []byte{0x07, 0x03, 0x47}},
		{"srv", "z0", "ctl", 1, 1, []byte{0x07, 0x03, 0x47}},
		{"srv", "z0", "ctl", 1, 1<<53 - 1, []byte{0x07, 0x01, 0x03, 0x47, 0xc7}},
		{"srv", "z0", "ctl", 1, -(1<<53 - 1), []byte{0x07, 0x01, 0x03, 0x47, 0xc7}},
		{"srv", "z0", "ctl", 1, 1 << 53, []byte{0x07, 0x01, 0x03}},
		{"srv", "z0", "ctl", 1, 1<<62 + 3, []byte{0x07, 0x03, 0x47}},
		{"srv", "z0", "ctl", 1, math.MaxInt64 - 2000, []byte{0x07, 0x03, 0x47}},
	} {
		f.Add(s.vm, s.zone, s.chooser, s.arrival, s.out, s.ops)
	}
	f.Fuzz(func(t *testing.T, vm, zone, chooser string, arrival, out int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		l := decision.NewLog(2, decision.Options{})
		l.Label(0, chooser)
		at := sim.Time(arrival)
		// want[shard][seq] is the rendered form of each route added.
		type rendered struct {
			winner string
			body   decision.Body
		}
		var want [2][]rendered
		for i, op := range ops {
			r := l.Ring(i % 2)
			// op: bits 0-2 replica count - 1, bit 3 failover, bits 4-5
			// held back (1: no routable zone, 2: no live replica),
			// bits 6-7 the winner's generation.
			rt := decision.Route{Arrival: at - sim.Time(op), Zone: zone, Failover: op&0x08 != 0}
			switch op >> 4 & 3 {
			case 1:
				rt.Zone = ""
			case 2:
			default:
				n := int(op&7) + 1
				rt.Loads = r.Loads(n)
				for j := 0; j < n; j++ {
					name := vm + strconv.Itoa(j)
					if gen := int(op>>6) + j%2; gen > 0 {
						name += "#" + strconv.Itoa(gen)
					}
					rt.Loads = append(rt.Loads, decision.Load{Name: name, Out: out + int64(j*int(op))})
				}
				rt.Winner = rt.Loads[int(op)%n].Name
			}
			winner := rt.Winner
			if winner == "" {
				winner = "-"
			}
			want[i%2] = append(want[i%2], rendered{winner, routeBody(rt)})
			r.AddRoute(at+sim.Time(i), rt)
			if op&0x80 != 0 {
				l.Merge()
			}
		}
		l.Merge()
		recs := l.Records()
		plain := make([]decision.Record, len(recs))
		for i := range recs {
			r := &recs[i]
			w := want[r.Shard][r.Seq]
			b := w.body
			if got := r.Detail(); got != b.Detail {
				t.Fatalf("record %d: Detail() = %q, want %q", i, got, b.Detail)
			}
			if got := r.Candidates(); !slices.Equal(got, b.Candidates) {
				t.Fatalf("record %d: Candidates() = %+v, want %+v", i, got, b.Candidates)
			}
			if got := r.Inputs(); !slices.Equal(got, b.Inputs) {
				t.Fatalf("record %d: Inputs() = %+v, want %+v", i, got, b.Inputs)
			}
			if r.Subject != w.winner || r.Winner != w.winner {
				t.Fatalf("record %d: subject %q, winner %q, want %q", i, r.Subject, r.Winner, w.winner)
			}
			plain[i] = decision.Record{At: r.At, Shard: r.Shard, Seq: r.Seq, Kind: r.Kind,
				Chooser: r.Chooser, Subject: w.winner, Winner: w.winner, Body: &b}
		}

		var got, ref bytes.Buffer
		if err := decision.WriteJSON(&got, recs, l.Dropped()); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if err := jsonref.DecisionJSON(&ref, plain, l.Dropped()); err != nil {
			t.Fatalf("encoding/json: %v", err)
		}
		if !bytes.Equal(got.Bytes(), ref.Bytes()) {
			t.Fatalf("WriteJSON differs from encoding/json.\n--- got ---\n%s--- want ---\n%s", got.Bytes(), ref.Bytes())
		}
		got.Reset()
		if err := decision.WriteChromeTrace(&got, recs); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		trace, err := jsonref.DecisionChromeTrace(plain)
		if err != nil {
			t.Fatalf("encoding/json: %v", err)
		}
		if !bytes.Equal(got.Bytes(), trace) {
			t.Fatalf("WriteChromeTrace differs from encoding/json.\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), trace)
		}
	})
}

// routeBody is the reference rendering of a route, written apart from
// the package's on-read renderers: "req@<arrival>" and where the
// request went or why it was held back, every replica scored by its
// outstanding count with reason "out=N", and the zone and failover
// flag as inputs, or buffered=1 alone for a held-back request. A
// route with no zone was held back for want of a routable zone.
func routeBody(rt decision.Route) decision.Body {
	req := "req@" + rt.Arrival.String()
	switch {
	case rt.Winner == "" && rt.Zone == "":
		return decision.Body{Detail: req + " held back: no routable zone",
			Inputs: []decision.KV{{Key: "buffered", Val: "1"}}}
	case rt.Winner == "":
		return decision.Body{Detail: req + " held back: no live replica in " + rt.Zone,
			Inputs: []decision.KV{{Key: "buffered", Val: "1"}}}
	}
	b := decision.Body{Detail: req + " to " + rt.Winner + " in " + rt.Zone,
		Inputs: []decision.KV{{Key: "zone", Val: rt.Zone}}}
	for _, ld := range rt.Loads {
		b.Candidates = append(b.Candidates, decision.Candidate{
			Name: ld.Name, Score: float64(ld.Out), Reason: "out=" + strconv.FormatInt(ld.Out, 10)})
	}
	if rt.Failover {
		b.Inputs = append(b.Inputs, decision.KV{Key: "failover", Val: "1"})
	}
	return b
}

// TestUntypedScoresTakeFloatPath holds records that carry their
// candidates in a Body to the float formatter: scores of -0, 0.5, 2^53,
// 2^53+2 and 1e21 (which encoding/json writes as 1e+21), and the
// margins between them, must match jsonref's encoding/json rendering.
// Only a typed route's integer counts take integer formatting.
func TestUntypedScoresTakeFloatPath(t *testing.T) {
	scores := []float64{math.Copysign(0, -1), 0.5, 1 << 53, 1<<53 + 2, 1e21}
	var recs []decision.Record
	for i, score := range scores {
		for j, other := range scores {
			if i == j {
				continue
			}
			recs = append(recs, decision.Record{
				At: sim.Time(len(recs)) * sim.Millisecond, Kind: decision.KindPlace, Chooser: "ctl",
				Subject: "vm", Winner: "a",
				Body: &decision.Body{Candidates: []decision.Candidate{{Name: "a", Score: score}, {Name: "b", Score: other}}},
			})
		}
	}
	var got, want bytes.Buffer
	if err := decision.WriteJSON(&got, recs, 0); err != nil {
		t.Fatal(err)
	}
	if err := jsonref.DecisionJSON(&want, recs, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteJSON differs from encoding/json.\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want.Bytes())
	}
	for _, lit := range []string{"-0", "0.5", "9007199254740992", "9007199254740994", "1e+21"} {
		if !bytes.Contains(got.Bytes(), []byte(`"score": `+lit+"\n")) {
			t.Errorf("WriteJSON output lacks score %s", lit)
		}
	}
	got.Reset()
	if err := decision.WriteChromeTrace(&got, recs); err != nil {
		t.Fatal(err)
	}
	trace, err := jsonref.DecisionChromeTrace(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), trace) {
		t.Fatalf("WriteChromeTrace differs from encoding/json.\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), trace)
	}
}
