package obs_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/jsonref"
	"repro/internal/obs"
	"repro/internal/sim"
)

// FuzzChromeEmit holds the hand-written Chrome-trace emitter, and the
// string, float and timestamp appenders under it, to encoding/json
// byte for byte: a document of fuzzed events (names, categories, args
// in strictly ascending key order and with repeated keys, integer
// nanosecond timestamps) must equal
// jsonref.ChromeTrace's per-event encoding/json rendering, which
// writes each timestamp as the float64 ts/1e3. The same events emitted
// as bytes (EmitBytes) must give the same document. The float
// appender is also checked on the timestamp's bit pattern read as a
// float64, which reaches NaN and ±Inf.
func FuzzChromeEmit(f *testing.F) {
	type seed struct {
		name, cat, key, val string
		ts                  int64
		pid, tid            int
	}
	for _, s := range []seed{
		{"switch", "vcpu", "detail", "fg/v0 -> bg/v1", 40123500, 1, 3},
		{`<script>&"quoted"\`, "c<a>t", "k&y", `v"\`, 0, 0, 0},
		{"\x00\x01\x07\b\f\n\r\t\x1f\x7f", "\xff", "\xe2\x80", "\xe2\x80\xa8 and \xe2\x80\xa9", 1, -1, 1 << 40},
		{"µs ünïcode ✓", "\xc3\x28", "", "", 999, 2, 2},
		{"a", "", "k", "v", 1000, 1, 1},
		{"a", "", "k", "v", 1001, 1, 1},
		{"a", "", "k", "v", -1001, 1, 1},
		{"a", "", "k", "v", 1<<50 - 1, 1, 1},
		{"a", "", "k", "v", 1 << 50, 1, 1},
		{"a", "", "k", "v", -(1 << 50) - 1, 1, 1},
		{"a", "", "k", "v", math.MaxInt64, 1, 1},
		{"a", "", "k", "v", math.MinInt64, 1, 1},
		{"a", "", "k", "v", 6000250000, 1, 1},
		// Float bit patterns, for the AppendJSONFloat check: the
		// exponent-form switches on both sides (1e-6, 1e21), the
		// extremes, -0 (math.MinInt64 above) and the non-finite values.
		{"a", "", "k", "v", int64(math.Float64bits(40123.5)), 1, 1},
		{"a", "", "k", "v", int64(math.Float64bits(6000250)), 1, 1},
		{"a", "", "k", "v", int64(math.Float64bits(1e-7)), 1, 1},
		{"a", "", "k", "v", int64(math.Float64bits(1e-6)), 1, 1},
		{"a", "", "k", "v", int64(math.Float64bits(9.999999e-7)), 1, 1},
		{"a", "", "k", "v", int64(math.Float64bits(1e20)), 1, 1},
		{"a", "", "k", "v", int64(math.Float64bits(1e21)), 1, 1},
		{"a", "", "k", "v", int64(math.Float64bits(5e-324)), 1, 1},
		{"a", "", "k", "v", int64(math.Float64bits(math.MaxFloat64)), 1, 1},
		{"nan", "", "k", "v", int64(math.Float64bits(math.NaN())), 1, 1},
		{"inf", "", "k", "v", int64(math.Float64bits(math.Inf(1))), 1, 1},
		{"-inf", "", "k", "v", int64(math.Float64bits(math.Inf(-1))), 1, 1},
	} {
		f.Add(s.name, s.cat, s.key, s.val, s.ts, s.pid, s.tid)
	}
	f.Fuzz(func(t *testing.T, name, cat, key, val string, ts int64, pid, tid int) {
		if want, err := json.Marshal(name); err != nil || !bytes.Equal(obs.AppendJSONString(nil, name), want) {
			t.Fatalf("AppendJSONString(%q) = %s, encoding/json %s", name, obs.AppendJSONString(nil, name), want)
		}
		if got, want := obs.AppendJSONString(nil, []byte(name)), obs.AppendJSONString(nil, name); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONString(bytes %q) = %s, from the string %s", name, got, want)
		}
		fl := math.Float64frombits(uint64(ts))
		got, gotErr := obs.AppendJSONFloat(nil, fl)
		want, wantErr := json.Marshal(fl)
		if (gotErr != nil) != (wantErr != nil) || gotErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONFloat(%v) = %s, %v; encoding/json %s, %v", fl, got, gotErr, want, wantErr)
		}

		at := sim.Time(ts)
		events := []obs.ChromeEvent{
			obs.ProcessName(pid, cat),
			obs.ThreadName(pid, tid, name),
			{Name: name, Ph: "i", Ts: at, Pid: pid, Tid: tid, Cat: cat, S: val,
				Args: []obs.Arg{{Key: key, Val: val}, {Key: "detail", Val: name}, {Key: key, Val: cat}, {Key: cat, Val: key}}},
			{Name: cat, Ph: "E", Ts: -at, Pid: tid, Tid: pid, Args: []obs.Arg{}},
		}
		// The fuzzed keys in strictly ascending order take the
		// emitter's one-pass path; the same keys ending in an adjacent
		// duplicate take the NextArg walk, which keeps the last entry.
		keys := []string{key, name, cat}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		var asc []obs.Arg
		for i, k := range keys {
			asc = append(asc, obs.Arg{Key: k, Val: []string{val, name, cat}[i]})
		}
		dup := append(slices.Clone(asc), obs.Arg{Key: keys[len(keys)-1], Val: key})
		events = append(events,
			obs.ChromeEvent{Name: name, Ph: "i", Ts: at, Pid: pid, Tid: tid, Args: asc},
			obs.ChromeEvent{Name: val, Ph: "i", Ts: at, Pid: pid, Tid: tid, Args: dup})
		var doc, byteDoc bytes.Buffer
		tr, btr := obs.NewChromeTrace(&doc), obs.NewChromeTrace(&byteDoc)
		for _, e := range events {
			tr.Emit(e)
			be := obs.Event[[]byte]{Name: []byte(e.Name), Ph: e.Ph, Ts: e.Ts, Pid: e.Pid, Tid: e.Tid, Cat: e.Cat, S: e.S}
			for _, a := range e.Args {
				be.Args = append(be.Args, obs.KeyVal[[]byte]{Key: a.Key, Val: []byte(a.Val)})
			}
			btr.EmitBytes(be)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := btr.Close(); err != nil {
			t.Fatal(err)
		}
		ref, err := jsonref.ChromeTrace(events)
		if err != nil {
			t.Fatalf("encoding/json: %v", err)
		}
		if !bytes.Equal(doc.Bytes(), ref) {
			t.Fatalf("emitter differs from encoding/json.\n--- got ---\n%s\n--- want ---\n%s", doc.Bytes(), ref)
		}
		if !bytes.Equal(byteDoc.Bytes(), ref) {
			t.Fatalf("EmitBytes differs from encoding/json.\n--- got ---\n%s\n--- want ---\n%s", byteDoc.Bytes(), ref)
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
// its buffer has grown, emitting an event allocates nothing, from
// strings or from bytes.
func TestChromeEmitAllocationFree(t *testing.T) {
	tr := obs.NewChromeTrace(io.Discard)
	ev := obs.ChromeEvent{
		Name: "route srv0", Ph: "i", Ts: 6000250123, Pid: 1, Tid: 2, Cat: "route", S: "t",
		Args: []obs.Arg{{Key: "winner", Val: "srv0"}, {Key: "detail", Val: "req@6.000s to srv0 in z0"}, {Key: "margin", Val: "2.000"}},
	}
	bev := obs.Event[[]byte]{
		Name: []byte("route srv0"), Ph: "i", Ts: 6000250123, Pid: 1, Tid: 2, Cat: "route", S: "t",
		Args: []obs.KeyVal[[]byte]{{Key: "winner", Val: []byte("srv0")}, {Key: "detail", Val: []byte("req@6.000s to srv0 in z0 ✓")}},
	}
	tr.Emit(ev) // warm the buffer
	if allocs := testing.AllocsPerRun(1000, func() { tr.Emit(ev) }); allocs != 0 {
		t.Fatalf("Emit allocates %v times per event, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { tr.EmitBytes(bev) }); allocs != 0 {
		t.Fatalf("EmitBytes allocates %v times per event, want 0", allocs)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
