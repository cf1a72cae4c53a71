package obs_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"repro/internal/jsonref"
	"repro/internal/obs"
)

// FuzzChromeEmit holds the hand-written Chrome-trace emitter, and the
// string and float appenders under it, to encoding/json byte for byte:
// a document of fuzzed events (names, categories, args with repeated
// keys, timestamps) must equal jsonref.ChromeTrace's per-event
// encoding/json rendering, and a NaN or ±Inf timestamp must make both
// fail.
func FuzzChromeEmit(f *testing.F) {
	type seed struct {
		name, cat, key, val string
		ts                  float64
		pid, tid            int
	}
	for _, s := range []seed{
		{"switch", "vcpu", "detail", "fg/v0 -> bg/v1", 40123.5, 1, 3},
		{`<script>&"quoted"\`, "c<a>t", "k&y", `v"\`, -0.0, 0, 0},
		{"\x00\x01\x07\b\f\n\r\t\x1f\x7f", "\xff", "\xe2\x80", "\xe2\x80\xa8 and \xe2\x80\xa9", 1e-7, -1, 1 << 40},
		{"µs ünïcode ✓", "\xc3\x28", "", "", 1e21, 2, 2},
		{"a", "", "k", "v", 1e20, 1, 1},
		{"a", "", "k", "v", 1e-6, 1, 1},
		{"a", "", "k", "v", 9.999999e-7, 1, 1},
		{"a", "", "k", "v", 5e-324, 1, 1},
		{"a", "", "k", "v", math.MaxFloat64, 1, 1},
		{"a", "", "k", "v", 6000250, 1, 1},
		{"nan", "", "k", "v", math.NaN(), 1, 1},
		{"inf", "", "k", "v", math.Inf(1), 1, 1},
		{"-inf", "", "k", "v", math.Inf(-1), 1, 1},
	} {
		f.Add(s.name, s.cat, s.key, s.val, s.ts, s.pid, s.tid)
	}
	f.Fuzz(func(t *testing.T, name, cat, key, val string, ts float64, pid, tid int) {
		if want, err := json.Marshal(name); err != nil || !bytes.Equal(obs.AppendJSONString(nil, name), want) {
			t.Fatalf("AppendJSONString(%q) = %s, encoding/json %s", name, obs.AppendJSONString(nil, name), want)
		}
		got, gotErr := obs.AppendJSONFloat(nil, ts)
		want, wantErr := json.Marshal(ts)
		if (gotErr != nil) != (wantErr != nil) || gotErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONFloat(%v) = %s, %v; encoding/json %s, %v", ts, got, gotErr, want, wantErr)
		}

		events := []obs.ChromeEvent{
			obs.ProcessName(pid, cat),
			obs.ThreadName(pid, tid, name),
			{Name: name, Ph: "i", Ts: ts, Pid: pid, Tid: tid, Cat: cat, S: val,
				Args: []obs.Arg{{Key: key, Val: val}, {Key: "detail", Val: name}, {Key: key, Val: cat}, {Key: cat, Val: key}}},
			{Name: cat, Ph: "E", Ts: -ts, Pid: tid, Tid: pid, Args: []obs.Arg{}},
		}
		var doc bytes.Buffer
		tr := obs.NewChromeTrace(&doc)
		for _, e := range events {
			tr.Emit(e)
		}
		gotErr = tr.Close()
		ref, wantErr := jsonref.ChromeTrace(events)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("emitter error %v, encoding/json error %v", gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(doc.Bytes(), ref) {
			t.Fatalf("emitter differs from encoding/json.\n--- got ---\n%s\n--- want ---\n%s", doc.Bytes(), ref)
		}
	})
}

// TestChromeTraceEmptyDocument pins the envelope with no events.
func TestChromeTraceEmptyDocument(t *testing.T) {
	var doc bytes.Buffer
	if err := obs.NewChromeTrace(&doc).Close(); err != nil {
		t.Fatal(err)
	}
	if want, _ := jsonref.ChromeTrace(nil); !bytes.Equal(doc.Bytes(), want) {
		t.Fatalf("empty document %q, want %q", doc.Bytes(), want)
	}
}

// TestChromeEmitAllocationFree pins the emitter's steady state: once
// its buffer has grown, emitting an event allocates nothing.
func TestChromeEmitAllocationFree(t *testing.T) {
	tr := obs.NewChromeTrace(io.Discard)
	ev := obs.ChromeEvent{
		Name: "route srv0", Ph: "i", Ts: 6000250, Pid: 1, Tid: 2, Cat: "route", S: "t",
		Args: []obs.Arg{{Key: "winner", Val: "srv0"}, {Key: "detail", Val: "req@6.000s to srv0 in z0"}, {Key: "margin", Val: "2.000"}},
	}
	tr.Emit(ev) // warm the buffer
	if allocs := testing.AllocsPerRun(1000, func() { tr.Emit(ev) }); allocs != 0 {
		t.Fatalf("Emit allocates %v times per event, want 0", allocs)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
