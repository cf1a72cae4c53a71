// Package jsonref renders the export formats that obs and decision
// encode by hand, the way encoding/json rendered them before: Chrome
// trace events encoded one by one through a json.Encoder, and the
// decision bundle through an indenting encoder over tagged structs.
// It is the oracle of the differential tests and fuzz targets, which
// require the hand encoders to match it byte for byte. Only tests
// import it.
package jsonref

import (
	"bytes"
	"encoding/json"
	"io"

	"repro/internal/decision"
	"repro/internal/obs"
)

// chromeEvent is obs.ChromeEvent as encoding/json sees it, with the
// args as a map.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Cat  string            `json:"cat,omitempty"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTrace renders events as one Chrome trace document.
func ChromeTrace(events []obs.ChromeEvent) ([]byte, error) {
	evs := make([]chromeEvent, len(events))
	for i, e := range events {
		evs[i] = chromeEvent{Name: e.Name, Ph: e.Ph, Ts: e.Ts, Pid: e.Pid, Tid: e.Tid, Cat: e.Cat, S: e.S}
		if len(e.Args) > 0 {
			evs[i].Args = make(map[string]string, len(e.Args))
			for _, a := range e.Args {
				evs[i].Args[a.Key] = a.Val
			}
		}
	}
	return chromeTrace(evs)
}

func chromeTrace(evs []chromeEvent) ([]byte, error) {
	var out, ev bytes.Buffer
	enc := json.NewEncoder(&ev)
	out.WriteString(`{"traceEvents":[`)
	for i := range evs {
		if i > 0 {
			out.WriteByte(',')
		}
		ev.Reset()
		if err := enc.Encode(&evs[i]); err != nil {
			return nil, err
		}
		out.Write(ev.Bytes()[:ev.Len()-1]) // drop Encode's newline
	}
	out.WriteString("],\"displayTimeUnit\":\"ms\"}\n")
	return out.Bytes(), nil
}

// ReencodeChromeTrace decodes a Chrome trace document and renders its
// events again as ChromeTrace does. A document equal to its
// re-encoding is exactly encoding/json's rendering of the events it
// holds.
func ReencodeChromeTrace(doc []byte) ([]byte, error) {
	var d struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, err
	}
	return chromeTrace(d.TraceEvents)
}

// jsonCandidate mirrors decision.Candidate with stable JSON keys.
type jsonCandidate struct {
	Name   string  `json:"name"`
	Score  float64 `json:"score"`
	Reason string  `json:"reason,omitempty"`
}

// jsonRecord is one exported decision.
type jsonRecord struct {
	T          string            `json:"t"`
	Ns         int64             `json:"ns"`
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

// DecisionJSON writes the records as decision.WriteJSON must: one
// indented JSON bundle.
func DecisionJSON(w io.Writer, recs []decision.Record, dropped uint64) error {
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
