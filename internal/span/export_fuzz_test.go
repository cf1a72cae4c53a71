package span_test

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/jsonref"
	"repro/internal/sim"
	"repro/internal/span"
)

// fuzzUnits scales a fuzzed step so durations cross every unit
// time.Duration.String writes (ns, µs, ms, s, m, h) and odd values
// land between them.
var fuzzUnits = [8]sim.Time{1, sim.Microsecond, sim.Millisecond, sim.Second, 60 * sim.Second, 3600 * sim.Second, 7, 999_999}

// FuzzWriteChromeSpans holds the span export to encoding/json: fuzz
// bytes become a bounded list of spans, two bytes per step (op, then
// the time step), and the document WriteChromeSpans writes must equal
// jsonref.ChromeSpans, encoding/json's rendering of the events the
// spans map to, byte for byte. Ops start a request (whose ID counts
// down from the fuzzed id, up to math.MaxInt64), move it to a category,
// begin a phase named from the '|'-separated names (hostile bytes,
// U+2028, invalid UTF-8), or finish it; a request left open stays
// unfinished, and the export must skip it. With valid UTF-8 names the
// document must also equal its own re-encoding
// (jsonref.ReencodeChromeTrace), the form encoding/json writes back.
func FuzzWriteChromeSpans(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, names string, id int64) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		pool := strings.Split(names, "|")
		tr := span.NewTracer()
		var spans []*span.Span
		var cur *span.Span
		now := sim.Time(1)
		for i := 0; i+1 < len(ops); i += 2 {
			op, step := ops[i], ops[i+1]
			now += sim.Time(step&0x1f) * fuzzUnits[step>>5]
			cat := span.Category(int(op>>2) % span.NumCategories)
			switch op & 3 {
			case 0:
				cur = tr.Start(now)
				cur.ID = id - int64(len(spans))
				spans = append(spans, cur)
			case 1:
				cur.Transition(now, cat)
			case 2:
				cur.BeginPhase(now, pool[int(op>>2)%len(pool)], cat)
			case 3:
				cur.Finish(now)
			}
		}
		half := len(spans) / 2
		sets := []span.TrackSet{
			{Name: pool[0], Spans: append(spans[:half:half], nil)},
			{Name: names, Spans: spans[half:]},
		}
		var doc bytes.Buffer
		if err := span.WriteChromeSpans(&doc, sets); err != nil {
			t.Fatal(err)
		}
		want, err := jsonref.ChromeSpans(sets)
		if err != nil {
			t.Fatalf("encoding/json: %v", err)
		}
		if !bytes.Equal(doc.Bytes(), want) {
			t.Fatalf("WriteChromeSpans differs from encoding/json.\n--- got ---\n%s\n--- want ---\n%s", doc.Bytes(), want)
		}
		if !utf8.ValidString(names) {
			return // re-encoding writes U+FFFD raw where the export wrote �
		}
		re, err := jsonref.ReencodeChromeTrace(doc.Bytes())
		if err != nil {
			t.Fatalf("export does not decode: %v", err)
		}
		if !bytes.Equal(doc.Bytes(), re) {
			t.Fatalf("export differs from its re-encoding.\n--- got ---\n%s\n--- want ---\n%s", doc.Bytes(), re)
		}
	})
}
