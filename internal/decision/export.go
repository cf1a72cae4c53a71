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
		if b, err = appendRecord(b, &recs[i]); err != nil {
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
// depth 2, starting with its line break.
func appendRecord(b []byte, r *Record) ([]byte, error) {
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
	for _, f := range [...]struct{ key, val string }{{"subject", r.Subject}, {"winner", r.Winner}, {"detail", r.Detail}} {
		if f.val != "" {
			b = obs.AppendJSONString(field(b, f.key), f.val)
		}
	}
	if len(r.Candidates) > 0 {
		b = append(field(b, "candidates"), '[')
		for i, c := range r.Candidates {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n        {\n          \"name\": "...)
			b = obs.AppendJSONString(b, c.Name)
			b = append(b, ",\n          \"score\": "...)
			var err error
			if b, err = obs.AppendJSONFloat(b, c.Score); err != nil {
				return b, err
			}
			if c.Reason != "" {
				b = append(b, ",\n          \"reason\": "...)
				b = obs.AppendJSONString(b, c.Reason)
			}
			b = append(b, "\n        }"...)
		}
		b = append(b, "\n      ]"...)
	}
	if len(r.Inputs) > 0 {
		b = append(field(b, "inputs"), '{')
		sep := ""
		for i := obs.NextArg(r.Inputs, -1); i >= 0; i = obs.NextArg(r.Inputs, i) {
			b = append(b, sep...)
			sep = ","
			b = append(b, "\n        "...)
			b = obs.AppendJSONString(b, r.Inputs[i].Key)
			b = append(b, ": "...)
			b = obs.AppendJSONString(b, r.Inputs[i].Val)
		}
		b = append(b, "\n      }"...)
	}
	return append(b, "\n    }"...), nil
}

// WriteChromeTrace renders the records as Perfetto instant events: one
// process ("decisions"), one thread track per chooser in first-
// appearance order, each decision a thread-scoped instant at its
// virtual time carrying kind/subject/winner/detail args.
func WriteChromeTrace(w io.Writer, recs []Record) error {
	const pid = 1
	out := obs.NewChromeTrace(w)
	out.Emit(obs.ProcessName(pid, "decisions"))
	tids := map[string]int{}
	for i := range recs {
		r := &recs[i]
		tid, ok := tids[r.Chooser]
		if !ok {
			tid = len(tids) + 1
			tids[r.Chooser] = tid
			out.Emit(obs.ThreadName(pid, tid, r.Chooser))
		}
		// Args in key order (the emitter would sort them anyway).
		args := append(make([]obs.Arg, 0, 5), obs.Arg{Key: "detail", Val: r.Detail})
		if m, ok := r.Margin(); ok {
			args = append(args, obs.Arg{Key: "margin", Val: strconv.FormatFloat(m, 'f', 3, 64)})
		}
		args = append(args,
			obs.Arg{Key: "subject", Val: r.Subject},
			obs.Arg{Key: "vtime", Val: time.Duration(r.At).String()},
			obs.Arg{Key: "winner", Val: r.Winner})
		out.Emit(obs.ChromeEvent{
			Name: r.Kind.String() + " " + r.Subject,
			Ph:   "i", Ts: obs.Usec(r.At), Pid: pid, Tid: tid,
			Cat: r.Kind.String(), S: "t", Args: args,
		})
	}
	return out.Close()
}
