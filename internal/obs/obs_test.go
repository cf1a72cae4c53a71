package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestLabelsString(t *testing.T) {
	if got := (Labels{}).String(); got != "" {
		t.Fatalf("empty labels = %q", got)
	}
	l := Labels{Sub: "hv", VM: "fg", CPU: "fg/v0", Kind: "running"}
	want := `{sub="hv",vm="fg",cpu="fg/v0",kind="running"}`
	if got := l.String(); got != want {
		t.Fatalf("labels = %q, want %q", got, want)
	}
	if got := (Labels{VM: "fg"}).String(); got != `{vm="fg"}` {
		t.Fatalf("partial labels = %q", got)
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	h := r.Histogram("z", Labels{})
	if h != nil {
		t.Fatal("nil registry must hand out nil histograms")
	}
	// Every mutating/reading method must be a no-op on a nil histogram:
	// this is the contract that lets sample sites skip guards.
	h.Add(sim.Millisecond)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Percentile(99) != 0 {
		t.Fatal("nil histogram must read as zero")
	}
	if qs := h.Quantiles(50, 99); len(qs) != 2 || qs[0] != 0 || qs[1] != 0 {
		t.Fatalf("nil histogram quantiles = %v", qs)
	}
	r.CounterFunc("x", Labels{}, func() int64 { return 1 })
	r.GaugeFunc("f", Labels{}, func() float64 { return 1 })
	if r.Len() != 0 {
		t.Fatal("nil registry Len must be 0")
	}
	if CounterValue(r, "x", Labels{}) != 0 || r.FindHistogram("z", Labels{}) != nil {
		t.Fatal("nil registry lookups must read as absent")
	}
	var s *Sampler
	s.Start(sim.NewEngine())
	s.Sample()
	if s.AllSeries() != nil || s.SeriesByName("x", Labels{}) != nil {
		t.Fatal("nil sampler must be inert")
	}
}

func TestRegistryIdentityAndValues(t *testing.T) {
	r := NewRegistry()
	l := Labels{Sub: "hv", VM: "fg"}
	var events, other int64
	r.CounterFunc("events_total", l, Field(&events))
	r.CounterFunc("events_total", Labels{Sub: "hv", VM: "bg"}, Field(&other))
	// A view reads the model field at lookup time.
	events = 3
	if got := CounterValue(r, "events_total", l); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if got := CounterValue(r, "events_total", Labels{Sub: "hv", VM: "bg"}); got != 0 {
		t.Fatalf("different labels must be a distinct view, read %d", got)
	}
	at := 2 * sim.Millisecond
	if r.CounterFunc("busy_ns", l, Field(&at)); CounterTime(r, "busy_ns", l) != at {
		t.Fatal("time view must read the field in ns")
	}

	load := 2.5
	r.GaugeFunc("load", l, func() float64 { return load })
	if e := r.find("load", l, kindGauge); e == nil || e.gauge() != 2.5 {
		t.Fatal("gauge view broken")
	}

	h := r.Histogram("wait_ns", l)
	if h2 := r.Histogram("wait_ns", l); h2 != h {
		t.Fatal("same (name, labels) must return the same histogram")
	}
	for _, v := range []sim.Time{30, 10, 20} {
		h.Add(v)
	}
	if h.Count() != 3 || h.Sum() != 60 || h.Mean() != 20 || h.Max() != 30 {
		t.Fatalf("histogram stats: count=%d sum=%d mean=%d max=%d",
			h.Count(), h.Sum(), h.Mean(), h.Max())
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	if r.FindHistogram("wait_ns", l) != h {
		t.Fatal("FindHistogram must return the registered instance")
	}
	if CounterValue(r, "missing", l) != 0 || CounterValue(r, "wait_ns", l) != 0 || r.FindHistogram("events_total", l) != nil {
		t.Fatal("lookups must not register and must check kind")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r := NewRegistry()
	r.CounterFunc("m", Labels{}, func() int64 { return 0 })
	r.GaugeFunc("m", Labels{}, func() float64 { return 0 })
}

func TestVisitDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	one := func() int64 { return 1 }
	r.CounterFunc("b_total", Labels{VM: "z"}, one)
	r.CounterFunc("b_total", Labels{VM: "a"}, one)
	r.Histogram("a_hist", Labels{})
	r.GaugeFunc("c_fn", Labels{}, func() float64 { return 7 })
	var got []string
	for _, e := range r.sortedEntries() {
		got = append(got, e.name+e.labels.String())
		if e.name == "c_fn" && e.gauge() != 7 {
			t.Fatalf("polled gauge = %v", e.gauge())
		}
	}
	want := []string{"a_hist", `b_total{vm="a"}`, `b_total{vm="z"}`, "c_fn"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("visit order = %v, want %v", got, want)
	}
}

func TestSamplerWithEngine(t *testing.T) {
	r := NewRegistry()
	var ticks int64
	r.CounterFunc("ticks_total", Labels{Sub: "hv"}, Field(&ticks))
	eng := sim.NewEngine()
	eng.Every(sim.Millisecond, func() { ticks++ })

	s := NewSampler(r, 10*sim.Millisecond)
	s.Start(eng)
	if err := eng.Run(35 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if s.Samples() != 3 {
		t.Fatalf("samples = %d, want 3 (t=10,20,30ms)", s.Samples())
	}
	se := s.SeriesByName("ticks_total", Labels{Sub: "hv"})
	if se == nil || len(se.Points) != 3 {
		t.Fatalf("series = %+v", se)
	}
	// Each snapshot is stamped with virtual time and the value then.
	if se.Points[0].At != 10*sim.Millisecond || se.Points[2].At != 30*sim.Millisecond {
		t.Fatalf("point times = %v, %v", se.Points[0].At, se.Points[2].At)
	}
	if se.Points[0].V >= se.Points[2].V {
		t.Fatalf("counter series should grow: %v vs %v", se.Points[0].V, se.Points[2].V)
	}
}

func TestSamplerHistogramDerivedSeries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wait_ns", Labels{VM: "fg"})
	for i := 1; i <= 100; i++ {
		h.Add(sim.Time(i))
	}
	s := NewSampler(r, sim.Millisecond)
	s.Sample()
	for _, field := range []string{".count", ".mean", ".p95", ".max"} {
		se := s.SeriesByName("wait_ns"+field, Labels{VM: "fg"})
		if se == nil || len(se.Points) != 1 {
			t.Fatalf("missing derived series %q", field)
		}
	}
	if v := s.SeriesByName("wait_ns.p95", Labels{VM: "fg"}).Points[0].V; v != 95 {
		t.Fatalf("p95 snapshot = %v", v)
	}
}

// A registration between ticks must reach the sampler's cached plan:
// the new metrics sample from the next tick on, and existing series
// keep growing.
func TestSamplerPicksUpLateRegistration(t *testing.T) {
	r := NewRegistry()
	var b, z int64 = 1, 2
	r.CounterFunc("m_total", Labels{VM: "b"}, Field(&b))
	s := NewSampler(r, sim.Millisecond)
	s.Sample()
	r.CounterFunc("m_total", Labels{VM: "z"}, Field(&z))
	r.CounterFunc("m_total", Labels{VM: "a"}, func() int64 { return 3 })
	s.Sample()
	var got []string
	for _, se := range s.AllSeries() {
		got = append(got, fmt.Sprintf("%s%s:%d", se.Name, se.Labels, len(se.Points)))
	}
	want := `m_total{vm="a"}:1|m_total{vm="b"}:2|m_total{vm="z"}:1`
	if strings.Join(got, "|") != want {
		t.Fatalf("series = %v, want %s", got, want)
	}
}

func TestNewSamplerPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil registry": func() { NewSampler(nil, sim.Second) },
		"zero cadence": func() { NewSampler(NewRegistry(), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: NewSampler should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWritePrometheusFormatAndDeterminism(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.CounterFunc("sa_sent_total", Labels{Sub: "hv", VM: "fg"}, func() int64 { return 7 })
		r.GaugeFunc("rt_avg", Labels{Sub: "guest"}, func() float64 { return 0.5 })
		h := r.Histogram("ack_ns", Labels{VM: "fg"})
		for i := 1; i <= 10; i++ {
			h.Add(sim.Time(i) * sim.Microsecond)
		}
		return r
	}
	var a, b bytes.Buffer
	if err := WritePrometheus(&a, build()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, build()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Prometheus export must be byte-identical across runs")
	}
	out := a.String()
	for _, want := range []string{
		"# TYPE sa_sent_total counter",
		`sa_sent_total{sub="hv",vm="fg"} 7`,
		"# TYPE rt_avg gauge",
		`rt_avg{sub="guest"} 0.5`,
		"# TYPE ack_ns summary",
		`ack_ns{vm="fg",quantile="0.95"} 10000`,
		`ack_ns_sum{vm="fg"} 55000`,
		`ack_ns_count{vm="fg"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRegistry()
	var x int64
	r.CounterFunc("x_total", Labels{VM: "fg"}, Field(&x))
	s := NewSampler(r, sim.Millisecond)
	x++
	s.Sample()
	x++
	s.Sample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 points:\n%s", len(lines), buf.String())
	}
	if lines[0] != "metric,labels,t_ns,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "x_total,") || !strings.HasSuffix(lines[1], ",1") {
		t.Fatalf("first point = %q", lines[1])
	}
	if !strings.HasSuffix(lines[2], ",2") {
		t.Fatalf("second point = %q", lines[2])
	}
}

func TestHistogramLine(t *testing.T) {
	if got := HistogramLine(nil); got != "n=0" {
		t.Fatalf("nil histogram line = %q", got)
	}
	r := NewRegistry()
	h := r.Histogram("w", Labels{})
	h.Add(30 * sim.Millisecond)
	line := HistogramLine(h)
	if !strings.Contains(line, "n=1") || !strings.Contains(line, "30.000ms") {
		t.Fatalf("histogram line = %q", line)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	log := trace.NewLog(0)
	log.Transition(1*sim.Millisecond, "fg/v0", "blocked", "runnable")
	log.Transition(2*sim.Millisecond, "fg/v0", "runnable", "running")
	log.Record(3*sim.Millisecond, trace.KindSA, "fg/v0", "sent")
	log.Transition(5*sim.Millisecond, "fg/v0", "running", "blocked")
	log.Record(20*sim.Millisecond, trace.KindNote, "outside", "beyond window")

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, log, 0, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Pid  int      `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	var begins, ends, instants, metas int
	for _, e := range out.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.Ts == nil || e.Pid == 0 || e.Tid == nil {
			t.Fatalf("event missing required fields: %+v", e)
		}
		if e.Name == "outside" {
			t.Fatal("event beyond the window leaked into the export")
		}
		switch e.Ph {
		case "B":
			begins++
		case "E":
			ends++
		case "i":
			instants++
		case "M":
			metas++
		}
	}
	// runnable B/E + running B/E from the three transitions.
	if begins != 2 || ends != 2 {
		t.Fatalf("B/E = %d/%d, want 2/2", begins, ends)
	}
	if instants != 1 {
		t.Fatalf("instants = %d, want 1 (the SA event)", instants)
	}
	if metas < 2 {
		t.Fatalf("metadata events = %d, want process_name + thread_name", metas)
	}
}

func TestWriteChromeTraceClosesOpenSlice(t *testing.T) {
	log := trace.NewLog(0)
	log.Transition(1*sim.Millisecond, "fg/v0", "runnable", "running")
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, log, 0, 4*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Ph string  `json:"ph"`
			Ts float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var sawEnd bool
	for _, e := range out.TraceEvents {
		if e.Ph == "E" {
			sawEnd = true
			if e.Ts != 4000 { // 4 ms window edge, in µs
				t.Fatalf("close ts = %v µs, want 4000", e.Ts)
			}
		}
	}
	if !sawEnd {
		t.Fatal("slice still open at window end must be closed")
	}
}

// chromePhases exports log over [0, 10ms] and returns each event's
// phase, metadata events excluded.
func chromePhases(t *testing.T, log *trace.Log) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, log, 0, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var phs []string
	for _, e := range out.TraceEvents {
		if e.Ph != "M" {
			phs = append(phs, e.Ph+":"+e.Args["detail"])
		}
	}
	return phs
}

func TestWriteChromeTraceBlackoutIsInstant(t *testing.T) {
	// A blackout shares the runstate kind but is no transition: it must
	// export as an instant, never open or close a slice.
	log := trace.NewLog(0)
	log.Blackout(1*sim.Millisecond, "fg/v0", 2*sim.Millisecond)
	got := chromePhases(t, log)
	if len(got) != 1 || got[0] != "i:blackout for 2.000ms" {
		t.Fatalf("blackout exported as %q, want one instant", got)
	}
}

func TestWriteChromeTraceTextTransitionIsInstant(t *testing.T) {
	// Only records made by Log.Transition become slices; free text that
	// merely reads like one stays an instant with its text intact.
	log := trace.NewLog(0)
	log.Record(1*sim.Millisecond, trace.KindVCPUState, "fg/v0", "runnable -> running")
	got := chromePhases(t, log)
	if len(got) != 1 || got[0] != "i:runnable -> running" {
		t.Fatalf("text record exported as %q, want one instant", got)
	}
}
