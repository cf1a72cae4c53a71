package decision

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// Exports. The JSON bundle is the machine-readable artifact CI
// uploads; the Chrome-trace export renders each decision as a Perfetto
// instant event on a per-chooser track, with the same microsecond
// timestamps and VM names span.WriteChromeSpans uses — load both files
// into one Perfetto session and the decision that routed a request
// lines up under the request's span.

// jsonCandidate mirrors Candidate with stable JSON keys.
type jsonCandidate struct {
	Name   string  `json:"name"`
	Score  float64 `json:"score"`
	Reason string  `json:"reason,omitempty"`
}

// jsonRecord is one exported decision.
type jsonRecord struct {
	T          string            `json:"t"`  // human time, e.g. "6.000s"
	Ns         int64             `json:"ns"` // virtual nanoseconds (span correlation key)
	Shard      int               `json:"shard"`
	Seq        uint64            `json:"seq"`
	Kind       string            `json:"kind"`
	Chooser    string            `json:"chooser"`
	Subject    string            `json:"subject,omitempty"`
	Winner     string            `json:"winner,omitempty"`
	Detail     string            `json:"detail,omitempty"`
	Candidates []jsonCandidate   `json:"candidates,omitempty"`
	Inputs     map[string]string `json:"inputs,omitempty"`
}

// jsonBundle is the export envelope.
type jsonBundle struct {
	Count   int          `json:"count"`
	Dropped uint64       `json:"dropped"`
	Records []jsonRecord `json:"records"`
}

// WriteJSON writes the records as one indented JSON bundle.
func WriteJSON(w io.Writer, recs []Record, dropped uint64) error {
	bundle := jsonBundle{Count: len(recs), Dropped: dropped, Records: []jsonRecord{}}
	for i := range recs {
		r := &recs[i]
		jr := jsonRecord{
			T:       r.At.String(),
			Ns:      int64(r.At),
			Shard:   r.Shard,
			Seq:     r.Seq,
			Kind:    r.Kind.String(),
			Chooser: r.Chooser,
			Subject: r.Subject,
			Winner:  r.Winner,
			Detail:  r.Detail,
		}
		for _, c := range r.Candidates {
			jr.Candidates = append(jr.Candidates, jsonCandidate{Name: c.Name, Score: c.Score, Reason: c.Reason})
		}
		if len(r.Inputs) > 0 {
			jr.Inputs = make(map[string]string, len(r.Inputs))
			for _, kv := range r.Inputs {
				jr.Inputs[kv.Key] = kv.Val
			}
		}
		bundle.Records = append(bundle.Records, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(bundle)
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
		args := map[string]string{
			"subject": r.Subject,
			"winner":  r.Winner,
			"detail":  r.Detail,
			"vtime":   time.Duration(r.At).String(),
		}
		if m, ok := r.Margin(); ok {
			args["margin"] = fmt.Sprintf("%.3f", m)
		}
		out.Emit(obs.ChromeEvent{
			Name: fmt.Sprintf("%s %s", r.Kind, r.Subject),
			Ph:   "i", Ts: obs.Usec(r.At), Pid: pid, Tid: tid,
			Cat: r.Kind.String(), S: "t", Args: args,
		})
	}
	return out.Close()
}
