package decision

import (
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Exports. The JSON bundle is the machine-readable artifact CI
// uploads; the Chrome-trace export renders each decision as a Perfetto
// instant event on a per-chooser track, with the same microsecond
// timestamps and VM names span.WriteChromeSpans uses — load both files
// into one Perfetto session and the decision that routed a request
// lines up under the request's span.

// WriteJSON writes the records as one indented JSON bundle,
// {"count","dropped","records":[...]}, streaming one record at a time.
// The bytes are encoding/json's two-space indented rendering, with
// empty subject, winner, detail, candidate reason, candidates and
// inputs omitted and inputs written as a key-sorted object. Records
// are appended into one buffer that goes to w in chunks of at least
// obs.ChunkSize bytes. A score of NaN or ±Inf has no JSON form:
// WriteJSON stops there and returns the error, leaving the output
// truncated.
func WriteJSON(w io.Writer, recs []Record, dropped uint64) error {
	b := make([]byte, 0, 2*obs.ChunkSize)
	text := make([]byte, 0, 128) // a route record's detail, rendered
	b = append(b, "{\n  \"count\": "...)
	b = strconv.AppendInt(b, int64(len(recs)), 10)
	b = append(b, ",\n  \"dropped\": "...)
	b = strconv.AppendUint(b, dropped, 10)
	b = append(b, ",\n  \"records\": ["...)
	for i := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, text, err = appendRecord(b, text, &recs[i]); err != nil {
			return err
		}
		if b, err = obs.FlushFull(w, b); err != nil {
			return err
		}
	}
	if len(recs) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "]\n}\n"...)
	_, err := w.Write(b)
	return err
}

// appendRecord appends one element of the records array, indented at
// depth 2, starting with its line break. text is scratch for a typed
// route record's detail line.
func appendRecord(b, text []byte, r *Record) ([]byte, []byte, error) {
	field := func(b []byte, key string) []byte {
		b = append(b, ",\n      \""...)
		b = append(b, key...)
		return append(b, "\": "...)
	}
	b = append(b, "\n    {\n      \"t\": \""...)
	b = r.At.Append(b) // sign, digits, '.', unit: nothing to escape
	b = append(b, "\",\n      \"ns\": "...)
	b = strconv.AppendInt(b, int64(r.At), 10)
	b = strconv.AppendInt(field(b, "shard"), int64(r.Shard), 10)
	b = strconv.AppendUint(field(b, "seq"), r.Seq, 10)
	b = obs.AppendJSONString(field(b, "kind"), r.Kind.String())
	b = obs.AppendJSONString(field(b, "chooser"), r.Chooser)
	if r.Subject != "" {
		b = obs.AppendJSONString(field(b, "subject"), r.Subject)
	}
	if r.Winner != "" {
		b = obs.AppendJSONString(field(b, "winner"), r.Winner)
	}
	if text = r.appendDetail(text[:0]); len(text) > 0 {
		b = obs.AppendJSONString(field(b, "detail"), text)
	}
	if n := r.numCandidates(); n > 0 {
		b = append(field(b, "candidates"), '[')
		for i := 0; i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			name, score := r.candidate(i)
			b = append(b, "\n        {\n          \"name\": "...)
			b = obs.AppendJSONString(b, name)
			b = append(b, ",\n          \"score\": "...)
			if out, ok := r.intScore(i); ok {
				b = strconv.AppendInt(b, out, 10)
			} else {
				var err error
				if b, err = obs.AppendJSONFloat(b, score); err != nil {
					return b, text, err
				}
			}
			switch {
			case r.route != nil: // "out=N": nothing to escape
				b = append(b, ",\n          \"reason\": \"out="...)
				b = append(strconv.AppendInt(b, r.route.loads[i].Out, 10), '"')
			case r.Body.Candidates[i].Reason != "":
				b = append(b, ",\n          \"reason\": "...)
				b = obs.AppendJSONString(b, r.Body.Candidates[i].Reason)
			}
			b = append(b, "\n        }"...)
		}
		b = append(b, "\n      ]"...)
	}
	var buf [2]KV
	if inputs := r.inputs(buf[:0]); len(inputs) > 0 {
		b = append(field(b, "inputs"), '{')
		sep := ""
		for i := obs.NextArg(inputs, -1); i >= 0; i = obs.NextArg(inputs, i) {
			b = append(b, sep...)
			sep = ","
			b = append(b, "\n        "...)
			b = obs.AppendJSONString(b, inputs[i].Key)
			b = append(b, ": "...)
			b = obs.AppendJSONString(b, inputs[i].Val)
		}
		b = append(b, "\n      }"...)
	}
	return append(b, "\n    }"...), text, nil
}

// WriteChromeTrace renders the records as Perfetto instant events: one
// process ("decisions"), one thread track per chooser in first-
// appearance order, each decision a thread-scoped instant at its
// virtual time carrying kind/subject/winner/detail args. Each event's
// name and argument values are rendered into one reused buffer and
// written through its kind's shape.
func WriteChromeTrace(w io.Writer, recs []Record) error {
	const pid = 1
	out := obs.NewChromeTrace(w)
	out.Emit(obs.ProcessName(pid, "decisions"))
	tids := map[string]int{}
	var tracks []obs.Track
	text := make([]byte, 0, 256)
	for i := range recs {
		r := &recs[i]
		tid, ok := tids[r.Chooser]
		if !ok {
			tid = len(tids) + 1
			tids[r.Chooser] = tid
			tracks = append(tracks, obs.MakeTrack(pid, tid))
			out.Emit(obs.ThreadName(pid, tid, r.Chooser))
		}
		kind := r.Kind.String()
		// Render "kind subject", then each argument value in key order;
		// ends[j] closes the j-th piece.
		var ends [6]int
		text = append(append(append(text[:0], kind...), ' '), r.Subject...)
		ends[0] = len(text)
		text = r.appendDetail(text)
		ends[1] = len(text)
		text, hasMargin := r.appendMargin(text)
		ends[2] = len(text)
		text = append(text, r.Subject...)
		ends[3] = len(text)
		text = obs.AppendDuration(text, time.Duration(r.At))
		ends[4] = len(text)
		text = append(text, r.Winner...)
		ends[5] = len(text)
		detail, margin, subject, vtime, winner := text[ends[0]:ends[1]], text[ends[1]:ends[2]],
			text[ends[2]:ends[3]], text[ends[3]:ends[4]], text[ends[4]:ends[5]]
		tr, shape := &tracks[tid-1], eventShape(r.Kind, hasMargin)
		if hasMargin {
			obs.Put(out, shape, tr, text[:ends[0]], r.At, detail, margin, subject, vtime, winner)
		} else {
			obs.Put(out, shape, tr, text[:ends[0]], r.At, detail, subject, vtime, winner)
		}
	}
	return out.Close()
}

// appendMargin appends Margin to three decimals, and reports whether
// the record has one. A typed route record's margin is a difference of
// integer scores (intScore): when that is below exactInt too, the
// float subtraction is exact, and integer formatting gives its bytes.
func (r *Record) appendMargin(b []byte) ([]byte, bool) {
	w, i := r.winner(), r.runnerUp()
	if w < 0 || i < 0 {
		return b, false
	}
	ws, okw := r.intScore(w)
	rs, okr := r.intScore(i)
	if m := rs - ws; okw && okr && -exactInt < m && m < exactInt {
		return append(strconv.AppendInt(b, m, 10), ".000"...), true
	}
	_, wf := r.candidate(w)
	_, rf := r.candidate(i)
	return strconv.AppendFloat(b, rf-wf, 'f', 3, 64), true
}

// eventShapes holds each kind's instant-event shape, without and with
// a margin argument, built on first use.
var eventShapes = sync.OnceValue(func() (shapes [kindCount][2]*obs.Shape) {
	for k := range shapes {
		shapes[k] = [2]*obs.Shape{newEventShape(Kind(k), false), newEventShape(Kind(k), true)}
	}
	return shapes
})

// eventShape returns the shape of kind's instant events.
func eventShape(kind Kind, margin bool) *obs.Shape {
	if kind < 0 || int(kind) >= kindCount {
		return newEventShape(kind, margin)
	}
	m := 0
	if margin {
		m = 1
	}
	return eventShapes()[kind][m]
}

// newEventShape builds the shape of kind's instant events.
func newEventShape(kind Kind, margin bool) *obs.Shape {
	if margin {
		return obs.MustShape("i", kind.String(), "t", "detail", "margin", "subject", "vtime", "winner")
	}
	return obs.MustShape("i", kind.String(), "t", "detail", "subject", "vtime", "winner")
}
