// Package jsonref renders the export formats that obs and decision
// encode by hand, the way encoding/json rendered them before: Chrome
// trace events encoded one by one through a json.Encoder, and the
// decision bundle through an indenting encoder over tagged structs.
// Request spans map to events the way span.WriteChromeSpans
// maps them. It is the oracle of the differential tests and fuzz targets, which
// require the hand encoders to match it byte for byte. Only tests
// import it.
package jsonref

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"time"

	"repro/internal/decision"
	"repro/internal/obs"
	"repro/internal/span"
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
		ts := float64(e.Ts) / 1e3 // virtual ns as float microseconds
		evs[i] = chromeEvent{Name: e.Name, Ph: e.Ph, Ts: ts, Pid: e.Pid, Tid: e.Tid, Cat: e.Cat, S: e.S}
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
			Detail:  r.Detail(),
		}
		for _, c := range r.Candidates() {
			jr.Candidates = append(jr.Candidates, jsonCandidate{Name: c.Name, Score: c.Score, Reason: c.Reason})
		}
		if inputs := r.Inputs(); len(inputs) > 0 {
			jr.Inputs = make(map[string]string, len(inputs))
			for _, kv := range inputs {
				jr.Inputs[kv.Key] = kv.Val
			}
		}
		bundle.Records = append(bundle.Records, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(bundle)
}

// DecisionChromeTrace renders the records as decision.WriteChromeTrace
// must: a "decisions" process, a thread per chooser in first-appearance
// order, and one instant per record named "kind subject" with its
// detail, margin (when scored), subject, vtime and winner as args.
func DecisionChromeTrace(recs []decision.Record) ([]byte, error) {
	const pid = 1
	events := []obs.ChromeEvent{obs.ProcessName(pid, "decisions")}
	tids := map[string]int{}
	for i := range recs {
		r := &recs[i]
		tid, ok := tids[r.Chooser]
		if !ok {
			tid = len(tids) + 1
			tids[r.Chooser] = tid
			events = append(events, obs.ThreadName(pid, tid, r.Chooser))
		}
		args := []obs.Arg{
			{Key: "detail", Val: r.Detail()},
			{Key: "subject", Val: r.Subject},
			{Key: "vtime", Val: time.Duration(r.At).String()},
			{Key: "winner", Val: r.Winner},
		}
		if m, ok := r.Margin(); ok {
			args = append(args, obs.Arg{Key: "margin", Val: strconv.FormatFloat(m, 'f', 3, 64)})
		}
		events = append(events, obs.ChromeEvent{
			Name: r.Kind.String() + " " + r.Subject, Ph: "i", Ts: r.At, Pid: pid, Tid: tid,
			Cat: r.Kind.String(), S: "t", Args: args,
		})
	}
	return ChromeTrace(events)
}

// ChromeSpans renders the track sets as span.WriteChromeSpans must:
// per set a process named for it; per finished span a thread track,
// named "req N (wall D)", holding a request slice with a wall arg,
// phase slices inside it, and one slice per segment named for its
// category with a dur arg.
func ChromeSpans(sets []span.TrackSet) ([]byte, error) {
	var events []obs.ChromeEvent
	for si, set := range sets {
		pid := si + 1
		events = append(events, obs.ProcessName(pid, set.Name))
		tid := 0
		for _, s := range set.Spans {
			if s == nil || !s.Finished() {
				continue
			}
			tid++
			req, wall := "req "+strconv.FormatInt(s.ID, 10), time.Duration(s.Wall()).String()
			events = append(events, obs.ThreadName(pid, tid, req+" (wall "+wall+")"),
				obs.ChromeEvent{Name: req, Ph: "B", Ts: s.Start, Pid: pid, Tid: tid, Cat: "request",
					Args: []obs.Arg{{Key: "wall", Val: wall}}})
			for pi := 0; pi < s.NumPhases(); pi++ {
				p := s.Phase(pi)
				events = append(events, obs.ChromeEvent{Name: p.Name, Ph: "B", Ts: p.Start, Pid: pid, Tid: tid, Cat: "phase"})
				for k := p.First; k < p.First+p.Len; k++ {
					seg := s.Segment(k)
					events = append(events,
						obs.ChromeEvent{Name: seg.Cat.String(), Ph: "B", Ts: seg.Start, Pid: pid, Tid: tid, Cat: "segment",
							Args: []obs.Arg{{Key: "dur", Val: time.Duration(seg.Dur()).String()}}},
						obs.ChromeEvent{Name: seg.Cat.String(), Ph: "E", Ts: seg.End, Pid: pid, Tid: tid, Cat: "segment"})
				}
				events = append(events, obs.ChromeEvent{Name: p.Name, Ph: "E", Ts: p.End, Pid: pid, Tid: tid, Cat: "phase"})
			}
			events = append(events, obs.ChromeEvent{Name: req, Ph: "E", Ts: s.End, Pid: pid, Tid: tid, Cat: "request"})
		}
	}
	return ChromeTrace(events)
}
