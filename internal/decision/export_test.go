package decision

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/sim"
)

func exportRecs() []Record {
	return []Record{
		{
			At: 6 * sim.Second, Shard: 0, Seq: 3, Kind: KindCordon,
			Chooser: "ctl", Subject: "z1", Winner: "z1",
			Body: &Body{
				Detail: "zone outage: 8 hosts dark",
				Inputs: []KV{{Key: "hosts", Val: "8"}},
			},
		},
		{
			At: 6*sim.Second + 250*sim.Microsecond, Shard: 0, Seq: 4, Kind: KindRoute,
			Chooser: "ctl", Subject: "srv0", Winner: "srv0",
			Body: &Body{
				Candidates: []Candidate{{Name: "srv0", Score: 3, Reason: "out=3"}, {Name: "srv2", Score: 5, Reason: "out=5"}},
				Inputs:     []KV{{Key: "failover", Val: "1"}},
			},
		},
	}
}

func TestWriteJSONBundle(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, exportRecs(), 7); err != nil {
		t.Fatal(err)
	}
	var bundle struct {
		Count   int    `json:"count"`
		Dropped uint64 `json:"dropped"`
		Records []struct {
			T          string            `json:"t"`
			Ns         int64             `json:"ns"`
			Kind       string            `json:"kind"`
			Chooser    string            `json:"chooser"`
			Winner     string            `json:"winner"`
			Inputs     map[string]string `json:"inputs"`
			Candidates []struct {
				Name  string  `json:"name"`
				Score float64 `json:"score"`
			} `json:"candidates"`
		} `json:"records"`
	}
	if err := json.Unmarshal(buf.Bytes(), &bundle); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if bundle.Count != 2 || bundle.Dropped != 7 || len(bundle.Records) != 2 {
		t.Fatalf("bundle envelope: %+v", bundle)
	}
	r0 := bundle.Records[0]
	if r0.Kind != "cordon" || r0.T != "6.000s" || r0.Ns != int64(6*sim.Second) {
		t.Fatalf("record 0 = %+v", r0)
	}
	r1 := bundle.Records[1]
	if r1.Inputs["failover"] != "1" || len(r1.Candidates) != 2 || r1.Candidates[1].Score != 5 {
		t.Fatalf("record 1 = %+v", r1)
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil, 0); err != nil {
		t.Fatal(err)
	}
	// records must encode as [], not null — consumers iterate it.
	if !strings.Contains(buf.String(), "\"records\": []") {
		t.Fatalf("empty bundle: %s", buf.String())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, exportRecs()); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Fatalf("time unit %q", trace.DisplayTimeUnit)
	}
	// process_name + one thread_name (single chooser) + 2 instants.
	var instants int
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "i" {
			instants++
			if ev.Ts <= 0 {
				t.Fatalf("instant at ts %v", ev.Ts)
			}
		}
	}
	if instants != 2 {
		t.Fatalf("%d instant events, want 2", instants)
	}
	// The route instant carries the margin arg (scored candidates).
	last := trace.TraceEvents[len(trace.TraceEvents)-1]
	if last.Args["margin"] != "2.000" {
		t.Fatalf("route margin arg = %q", last.Args["margin"])
	}
}

// TestExportAllocsConstant pins both exporters to a constant number of
// allocations, the same at 100 and at 10,000 route records: the output
// buffer, the scratch text and the chooser tracks are set up once, and
// no record allocates.
func TestExportAllocsConstant(t *testing.T) {
	small, large := routeRecords(100), routeRecords(10_000)
	for _, ex := range []struct {
		name  string
		write func([]Record) error
	}{
		{"WriteJSON", func(recs []Record) error { return WriteJSON(io.Discard, recs, 0) }},
		{"WriteChromeTrace", func(recs []Record) error { return WriteChromeTrace(io.Discard, recs) }},
	} {
		allocs := func(recs []Record) float64 {
			return testing.AllocsPerRun(5, func() {
				if err := ex.write(recs); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(small), allocs(large); a != b {
			t.Errorf("%s allocates %v times for 100 records, %v for 10,000", ex.name, a, b)
		}
	}
}
