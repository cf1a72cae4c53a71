package decision

import (
	"bufio"
	"io"
	"strconv"
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
// inputs omitted and inputs written as a key-sorted object. A score of
// NaN or ±Inf has no JSON form: WriteJSON stops there and returns the
// error, leaving the output truncated.
func WriteJSON(w io.Writer, recs []Record, dropped uint64) error {
	bw := bufio.NewWriter(w)
	b := make([]byte, 0, 1024)
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
		if _, err := bw.Write(b); err != nil {
			return err
		}
		b = b[:0]
	}
	if len(recs) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "]\n}\n"...)
	if _, err := bw.Write(b); err != nil {
		return err
	}
	return bw.Flush()
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
			var err error
			if b, err = obs.AppendJSONFloat(b, score); err != nil {
				return b, text, err
			}
			switch {
			case r.route.typed: // "out=N": nothing to escape
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
// name and argument values are rendered into one reused buffer.
func WriteChromeTrace(w io.Writer, recs []Record) error {
	const pid = 1
	out := obs.NewChromeTrace(w)
	out.Emit(obs.ProcessName(pid, "decisions"))
	tids := map[string]int{}
	text := make([]byte, 0, 256)
	args := make([]obs.KeyVal[[]byte], 0, 5)
	for i := range recs {
		r := &recs[i]
		tid, ok := tids[r.Chooser]
		if !ok {
			tid = len(tids) + 1
			tids[r.Chooser] = tid
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
		m, hasMargin := r.Margin()
		if hasMargin {
			text = strconv.AppendFloat(text, m, 'f', 3, 64)
		}
		ends[2] = len(text)
		text = append(text, r.Subject...)
		ends[3] = len(text)
		text = obs.AppendDuration(text, time.Duration(r.At))
		ends[4] = len(text)
		text = append(text, r.Winner...)
		ends[5] = len(text)
		args = args[:0]
		for j, key := range [...]string{"detail", "margin", "subject", "vtime", "winner"} {
			if key != "margin" || hasMargin {
				args = append(args, obs.KeyVal[[]byte]{Key: key, Val: text[ends[j]:ends[j+1]]})
			}
		}
		out.EmitBytes(obs.Event[[]byte]{
			Name: text[:ends[0]],
			Ph:   "i", Ts: r.At, Pid: pid, Tid: tid,
			Cat: kind, S: "t", Args: args,
		})
	}
	return out.Close()
}
