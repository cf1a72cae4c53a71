package decision_test

import (
	"bytes"
	"math"
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
			Chooser: s1, Subject: pick(0, s2), Winner: pick(1, s3), Detail: pick(2, s4),
		}
		if shape&(1<<3) != 0 {
			r.Candidates = []decision.Candidate{{Name: s1, Score: score, Reason: pick(4, s2)}, {Name: s3, Score: -score}}
		}
		if shape&(1<<5) != 0 {
			// Repeated keys: the exported object keeps each key's last value.
			r.Inputs = []decision.KV{{Key: s3, Val: s4}, {Key: s1, Val: s2}, {Key: s3, Val: s1}}
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
