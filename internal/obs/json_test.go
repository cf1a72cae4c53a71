package obs_test

import (
	"bytes"
	"encoding/json"
	"errors"
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
// as bytes (EmitBytes), and put through a Shape compiled from each
// event (its keys in NextArg's order, the name both escaped by Put and
// pre-quoted for PutQuoted), must give the same document. The float
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
		var doc, byteDoc, shapeDoc, quotedDoc bytes.Buffer
		tr, btr := obs.NewChromeTrace(&doc), obs.NewChromeTrace(&byteDoc)
		str, qtr := obs.NewChromeTrace(&shapeDoc), obs.NewChromeTrace(&quotedDoc)
		for _, e := range events {
			tr.Emit(e)
			be := obs.Event[[]byte]{Name: []byte(e.Name), Ph: e.Ph, Ts: e.Ts, Pid: e.Pid, Tid: e.Tid, Cat: e.Cat, S: e.S}
			for _, a := range e.Args {
				be.Args = append(be.Args, obs.KeyVal[[]byte]{Key: a.Key, Val: []byte(a.Val)})
			}
			btr.EmitBytes(be)

			var keys []string
			var vals [][]byte
			for i := obs.NextArg(e.Args, -1); i >= 0; i = obs.NextArg(e.Args, i) {
				keys = append(keys, e.Args[i].Key)
				vals = append(vals, []byte(e.Args[i].Val))
			}
			shape, err := obs.NewShape(e.Ph, e.Cat, e.S, keys...)
			if err != nil {
				t.Fatalf("NewShape(%q) on NextArg's order: %v", keys, err)
			}
			track := obs.MakeTrack(e.Pid, e.Tid)
			obs.Put(str, shape, &track, []byte(e.Name), e.Ts, vals...)
			obs.PutQuoted(qtr, shape, &track, obs.AppendJSONString(nil, e.Name), e.Ts, vals...)
		}
		for _, w := range []*obs.ChromeTrace{tr, btr, str, qtr} {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
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
		if !bytes.Equal(shapeDoc.Bytes(), ref) {
			t.Fatalf("Put differs from encoding/json.\n--- got ---\n%s\n--- want ---\n%s", shapeDoc.Bytes(), ref)
		}
		if !bytes.Equal(quotedDoc.Bytes(), ref) {
			t.Fatalf("PutQuoted differs from encoding/json.\n--- got ---\n%s\n--- want ---\n%s", quotedDoc.Bytes(), ref)
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

// TestShapeKeysMustAscend pins NewShape's check: keys out of order or
// repeated are rejected, since Put writes values in the order given
// and encoding/json writes a map's keys sorted and once.
func TestShapeKeysMustAscend(t *testing.T) {
	for _, keys := range [][]string{{"b", "a"}, {"a", "a"}, {"a", "c", "b"}, {"detail", "winner", "margin"}} {
		if _, err := obs.NewShape("i", "route", "t", keys...); err == nil {
			t.Errorf("NewShape accepted keys %q", keys)
		}
	}
	for _, keys := range [][]string{nil, {"a"}, {"", "a"}, {"detail", "margin", "subject", "vtime", "winner"}} {
		if _, err := obs.NewShape("i", "route", "t", keys...); err != nil {
			t.Errorf("NewShape rejected ascending keys %q: %v", keys, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustShape accepted keys that do not ascend")
		}
	}()
	obs.MustShape("B", "", "", "z", "a")
}

// TestChromeTraceChunks pins the flat buffer's flush rule: the writer
// sees chunks of at least ChunkSize bytes, only the last one shorter.
func TestChromeTraceChunks(t *testing.T) {
	var w chunkRecorder
	tr := obs.NewChromeTrace(&w)
	shape := obs.MustShape("i", "cat", "t", "detail")
	track := obs.MakeTrack(1, 2)
	for i := 0; i < 10_000; i++ {
		obs.Put(tr, shape, &track, "event", sim.Time(i)*1500, "some detail text")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if len(w.sizes) < 3 {
		t.Fatalf("%d writes for %d bytes, want several chunks", len(w.sizes), w.n)
	}
	for i, n := range w.sizes[:len(w.sizes)-1] {
		if n < obs.ChunkSize {
			t.Fatalf("write %d of %d has %d bytes, below ChunkSize %d", i, len(w.sizes), n, obs.ChunkSize)
		}
	}
}

// TestChromeTraceWriteError pins the error path: once the writer
// fails, the trace writes nothing more and Close returns that error.
func TestChromeTraceWriteError(t *testing.T) {
	w := &failingWriter{okWrites: 1}
	tr := obs.NewChromeTrace(w)
	shape := obs.MustShape("i", "cat", "t", "detail")
	track := obs.MakeTrack(1, 2)
	for i := 0; i < 10_000; i++ {
		obs.Put(tr, shape, &track, "event", sim.Time(i), "some detail text")
		tr.Emit(obs.ThreadName(1, 2, "track"))
	}
	if err := tr.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want %v", err, errDiskFull)
	}
	if w.calls != 2 {
		t.Fatalf("%d writes, want the good one and the failing one", w.calls)
	}
}

// errDiskFull is failingWriter's error.
var errDiskFull = errors.New("disk full")

// failingWriter accepts okWrites writes, then fails every one.
type failingWriter struct{ okWrites, calls int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.okWrites {
		return 0, errDiskFull
	}
	return len(p), nil
}

// chunkRecorder records the size of every write.
type chunkRecorder struct {
	sizes []int
	n     int
}

func (w *chunkRecorder) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	w.n += len(p)
	return len(p), nil
}

// TestChromeEmitAllocationFree pins the emitter's steady state: once
// its buffer has grown, emitting an event allocates nothing, from
// strings or from bytes, compiled per event or through a shape.
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
	shape := obs.MustShape("i", "route", "t", "detail", "winner")
	track := obs.MakeTrack(1, 2)
	name, quoted, detail := []byte("route srv0"), []byte(`"route srv0"`), []byte("req@6.000s to srv0 in z0")
	if allocs := testing.AllocsPerRun(1000, func() { obs.Put(tr, shape, &track, name, 6000250123, detail, name[6:]) }); allocs != 0 {
		t.Fatalf("Put allocates %v times per event, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { obs.PutQuoted(tr, shape, &track, quoted, 6000250123, detail, name[6:]) }); allocs != 0 {
		t.Fatalf("PutQuoted allocates %v times per event, want 0", allocs)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
