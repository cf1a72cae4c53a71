package decision

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

func rec(at sim.Time, k Kind, subject string) Record {
	return Record{At: at, Kind: k, Subject: subject}
}

func TestNilRingAndLogAreNoOps(t *testing.T) {
	var r *Ring
	if r.Wants(KindPlace) {
		t.Fatal("nil ring wants records")
	}
	r.Add(rec(0, KindPlace, "x"), Body{}) // must not panic

	var l *Log
	l.Merge()
	l.Label(0, "ctl")
	if l.Ring(0) != nil {
		t.Fatal("nil log returned a ring")
	}
	if l.Records() != nil || l.Dropped() != 0 {
		t.Fatal("nil log has state")
	}
}

func TestRingStampsShardChooserSeq(t *testing.T) {
	l := NewLog(3, Options{})
	l.Label(0, "ctl")
	l.Label(2, "host1")
	l.Ring(0).Add(rec(10, KindPlace, "a"), Body{})
	l.Ring(0).Add(rec(20, KindRoute, "b"), Body{})
	l.Ring(2).Add(rec(15, KindBoost, "c"), Body{})
	l.Merge()
	recs := l.Records()
	if len(recs) != 3 {
		t.Fatalf("merged %d records, want 3", len(recs))
	}
	if recs[0].Chooser != "ctl" || recs[0].Shard != 0 || recs[0].Seq != 0 {
		t.Fatalf("record 0 stamped %q shard=%d seq=%d", recs[0].Chooser, recs[0].Shard, recs[0].Seq)
	}
	if recs[1].Chooser != "host1" || recs[1].Shard != 2 {
		t.Fatalf("record 1 = %+v, want host1 shard 2 (time order)", recs[1])
	}
	if recs[2].Seq != 1 {
		t.Fatalf("second ctl record seq = %d, want 1", recs[2].Seq)
	}
}

// subjects joins the records' subjects with commas.
func subjects(rs []Record) string {
	var parts []string
	for _, r := range rs {
		parts = append(parts, r.Subject)
	}
	return strings.Join(parts, ",")
}

// TestMergeCanonicalOrder pins the determinism contract: the merged
// order depends only on (time, shard, per-shard order) and on which
// merge batch a record landed in, never on the order in which shards
// wrote.
func TestMergeCanonicalOrder(t *testing.T) {
	build := func(splitMerges bool) []Record {
		l := NewLog(3, Options{})
		// Equal times across shards: shard order must win.
		l.Ring(2).Add(rec(100, KindPlace, "s2a"), Body{})
		l.Ring(1).Add(rec(100, KindPlace, "s1a"), Body{})
		l.Ring(1).Add(rec(50, KindPlace, "s1b"), Body{})
		if splitMerges {
			l.Merge()
		}
		l.Ring(0).Add(rec(100, KindPlace, "s0a"), Body{})
		l.Ring(2).Add(rec(70, KindPlace, "s2b"), Body{})
		l.Merge()
		out := make([]Record, len(l.Records()))
		copy(out, l.Records())
		return out
	}
	a, b := build(false), build(true)
	// One merge: stable sort by (time, shard) → s1b(50) s2b(70) s0a s1a
	// s2a (equal 100, shard order).
	if got := subjects(a); got != "s1b,s2b,s0a,s1a,s2a" {
		t.Fatalf("single merge order = %s", got)
	}
	// Records already merged keep their place; later records sort into
	// their own batch. The barrier schedule fixes which records share a
	// batch, so this order is still deterministic — it just differs
	// from the single-batch one.
	if got := subjects(b); got != "s1b,s1a,s2a,s2b,s0a" {
		t.Fatalf("split merge order = %s", got)
	}
}

// TestMergeOrdersSameInstantByShard pins the shard half of the merge
// key. At one barrier instant the control shard and a host shard write
// interleaved records (a placement, then the boot it triggers), and an
// earlier host record forces the batch to be sorted: the control
// shard's records must come first, in their own order, whatever order
// they were written in.
func TestMergeOrdersSameInstantByShard(t *testing.T) {
	const at = 10 * sim.Millisecond
	l := NewLog(5, Options{})
	ctl, host1, host3 := l.Ring(0), l.Ring(2), l.Ring(4)
	ctl.Add(rec(at, KindPlace, "ctl0"), Body{})
	host3.Add(rec(at, KindBoost, "host3"), Body{})
	ctl.Add(rec(at, KindPlace, "ctl1"), Body{})
	host1.Add(rec(at-sim.Microsecond, KindPreempt, "host1"), Body{})
	l.Merge()
	recs := l.Records()
	if got := subjects(recs); got != "host1,ctl0,ctl1,host3" {
		t.Fatalf("merge order = %s, want host1,ctl0,ctl1,host3", got)
	}
	if recs[1].Seq != 0 || recs[2].Seq != 1 {
		t.Fatalf("ctl records carry seq %d, %d; want 0, 1", recs[1].Seq, recs[2].Seq)
	}
}

// TestLogTotalMatchesQueueModel adds bursts of records across several
// chunk sizes and merges, and checks Records and Dropped against a
// model of the bound: a queue of at most Total records that drops its
// oldest when full.
func TestLogTotalMatchesQueueModel(t *testing.T) {
	const total = 700
	l := NewLog(1, Options{Total: total})
	r := l.Ring(0)
	var model []Record
	var dropped uint64
	at := sim.Time(0)
	for _, burst := range []int{3, 90, 200, 1100, 57, 0, 800, 2100, 45} {
		for i := 0; i < burst; i++ {
			at++
			r.Add(rec(at, KindRoute, "x"), Body{})
			model = append(model, Record{At: at, Seq: uint64(at - 1)})
		}
		l.Merge()
		if over := len(model) - total; over > 0 {
			model = model[over:]
			dropped += uint64(over)
		}
		got := l.Records()
		if len(got) != len(model) || l.Dropped() != dropped {
			t.Fatalf("after burst %d: %d records, dropped %d; want %d, dropped %d",
				burst, len(got), l.Dropped(), len(model), dropped)
		}
		for i := range got {
			if got[i].At != model[i].At || got[i].Seq != model[i].Seq {
				t.Fatalf("after burst %d: record %d at %v seq %d, want at %v seq %d",
					burst, i, got[i].At, got[i].Seq, model[i].At, model[i].Seq)
			}
		}
	}
}

// TestNewLogAllocatesLazily bounds what a default 17-shard log (the
// 2z8h rig's control shard plus 16 hosts) costs before any decision is
// recorded: one writer handle per shard and no record storage.
func TestNewLogAllocatesLazily(t *testing.T) {
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if NewLog(17, Options{}) == nil {
			t.Fatal("nil log")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16<<10 {
		t.Fatalf("NewLog(17, Options{}) allocates %d B, want at most 16 KiB", per)
	}
}

// TestLogTotalBound drops the oldest records past Total across merges.
func TestLogTotalBound(t *testing.T) {
	l := NewLog(1, Options{Total: 3})
	r := l.Ring(0)
	for i := 0; i < 5; i++ {
		r.Add(rec(sim.Time(i), KindRoute, "x"), Body{})
		l.Merge()
	}
	if len(l.Records()) != 3 {
		t.Fatalf("merged log holds %d, want 3", len(l.Records()))
	}
	if l.Records()[0].At != 2 {
		t.Fatalf("oldest surviving record at %v, want 2ns", l.Records()[0].At)
	}
	if l.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", l.Dropped())
	}
}

// TestUnmergedRingStaysBounded pins the Total bound on a writer that
// never merges (one hypervisor with its own engine): the pending batch
// holds at most Total records, its storage stays within four times
// that (it grows by doubling until its dropped prefix is half of it),
// every drop is counted, and a late Merge yields the newest Total
// records in order.
func TestUnmergedRingStaysBounded(t *testing.T) {
	const total, adds = 1000, 100_000
	l := NewLog(1, Options{Total: total})
	r := l.Ring(0)
	for i := 0; i < adds; i++ {
		r.Add(rec(sim.Time(i), KindRoute, "x"), Body{})
		if held := len(l.pending) - l.phead; held > total {
			t.Fatalf("after %d adds the batch holds %d records, want at most %d", i+1, held, total)
		}
	}
	if c := cap(l.pending); c > 4*total {
		t.Fatalf("pending storage grew to %d records for a bound of %d", c, total)
	}
	if l.Dropped() != adds-total {
		t.Fatalf("dropped = %d, want %d", l.Dropped(), adds-total)
	}
	l.Merge()
	got := l.Records()
	if len(got) != total || got[0].At != adds-total || got[0].Seq != adds-total || got[total-1].At != adds-1 {
		t.Fatalf("merged %d records from %v to %v, want the newest %d", len(got), got[0].At, got[len(got)-1].At, total)
	}
}

// TestRingOverflowDropsOldest overfills Total within one merge's batch:
// the batch keeps its newest records.
func TestRingOverflowDropsOldest(t *testing.T) {
	l := NewLog(1, Options{Total: 2})
	r := l.Ring(0)
	r.Add(rec(1, KindPlace, "a"), Body{})
	r.Add(rec(2, KindPlace, "b"), Body{})
	r.Add(rec(3, KindPlace, "c"), Body{})
	l.Merge()
	if got := subjects(l.Records()); got != "b,c" {
		t.Fatalf("overflow kept %s, want b,c", got)
	}
	if l.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", l.Dropped())
	}
}

func TestKindMaskFiltersRecording(t *testing.T) {
	l := NewLog(1, Options{Kinds: []Kind{KindPlace, KindCordon}})
	r := l.Ring(0)
	if !r.Wants(KindPlace) || !r.Wants(KindCordon) {
		t.Fatal("selected kinds not wanted")
	}
	if r.Wants(KindBoost) || r.Wants(KindRoute) {
		t.Fatal("unselected kinds wanted")
	}
}

func TestParseKinds(t *testing.T) {
	all, err := ParseKinds("all")
	if err != nil || len(all) != len(AllKinds()) {
		t.Fatalf("all = %v, %v", all, err)
	}
	ctl, err := ParseKinds("ctl")
	if err != nil || len(ctl) != len(ControlKinds()) {
		t.Fatalf("ctl = %v, %v", ctl, err)
	}
	got, err := ParseKinds("route, place")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != KindPlace || got[1] != KindRoute {
		t.Fatalf("kinds = %v, want enum order [place route]", got)
	}
	if _, err := ParseKinds("bogus"); err == nil {
		t.Fatal("bogus kind parsed")
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
}

func TestMarginAndRunnerUp(t *testing.T) {
	r := Record{
		Winner: "host1",
		Body: &Body{Candidates: []Candidate{
			{Name: "host0", Score: 0.9},
			{Name: "host1", Score: 0.2},
			{Name: "host2", Score: 0.5},
		}},
	}
	ru, ok := r.RunnerUp()
	if !ok || ru.Name != "host2" {
		t.Fatalf("runner-up = %+v, %v", ru, ok)
	}
	m, ok := r.Margin()
	if !ok || m < 0.299 || m > 0.301 {
		t.Fatalf("margin = %v, %v", m, ok)
	}
	// A winner outside the candidate set (boost records) has no margin.
	r.Winner = "elsewhere"
	if _, ok := r.Margin(); ok {
		t.Fatal("margin defined without a scored winner")
	}
}

func TestTrailSelectsElasticityStory(t *testing.T) {
	up := Record{At: 3, Kind: KindAutoscale, Body: &Body{Inputs: []KV{{Key: "act", Val: "up"}}}}
	down := Record{At: 9, Kind: KindAutoscale, Body: &Body{Inputs: []KV{{Key: "act", Val: "down"}}}}
	failover := Record{At: 2, Kind: KindRoute, Body: &Body{Inputs: []KV{{Key: "failover", Val: "1"}}}}
	recs := []Record{
		rec(0, KindPlace, "srv0"),
		rec(1, KindCordon, "z1"),
		rec(1, KindRoute, "srv0"), // plain route: not a failover step
		failover,
		{At: 2, Kind: KindRoute, Body: &Body{Inputs: []KV{{Key: "failover", Val: "1"}}}}, // only the first counts
		up,
		rec(5, KindMigrate, "srv1"), // migrations are queryable, not trail steps
		rec(6, KindUncordon, "z1"),
		down,
	}
	steps := Trail(recs)
	if got := TrailString(steps); got != "cordon,failover,scale-up,drain" {
		t.Fatalf("trail = %q", got)
	}
}

func TestClosestCalls(t *testing.T) {
	mk := func(at sim.Time, winner float64, runner float64) Record {
		return Record{
			At: at, Kind: KindPlace, Winner: "w",
			Body: &Body{Candidates: []Candidate{{Name: "w", Score: winner}, {Name: "r", Score: runner}}},
		}
	}
	recs := []Record{
		mk(1, 0.1, 0.9), // margin 0.8
		mk(2, 0.1, 0.2), // margin 0.1
		rec(3, KindCordon, "z0"),
		mk(4, 0.3, 0.5), // margin 0.2
	}
	calls := ClosestCalls(recs, 2)
	if len(calls) != 2 || calls[0].At != 2 || calls[1].At != 4 {
		t.Fatalf("closest calls = %+v", calls)
	}
	if got := ClosestCalls(recs, 10); len(got) != 3 {
		t.Fatalf("n beyond scored count returned %d", len(got))
	}
}

func TestCountsString(t *testing.T) {
	recs := []Record{
		rec(1, KindPlace, "a"), rec(2, KindPlace, "b"),
		rec(3, KindCordon, "z"),
	}
	if got := CountsString(recs); got != "place=2 cordon=1" {
		t.Fatalf("counts = %q", got)
	}
	if got := CountsString(nil); got != "none" {
		t.Fatalf("empty counts = %q", got)
	}
}

// TestTypedRouteRendering pins what a typed route record reads as:
// the detail line, "out=N" candidate reasons and the inputs the
// router's rendered records carried, for a routed request and both
// kinds of held-back request.
func TestTypedRouteRendering(t *testing.T) {
	l := NewLog(1, Options{})
	l.Label(0, "ctl")
	r := l.Ring(0)
	loads := append(r.Loads(2), Load{Name: "srv0#2", Out: 3}, Load{Name: "srv1", Out: 5})
	r.AddRoute(7*sim.Second, Route{Arrival: 6 * sim.Second, Zone: "z0", Winner: "srv0#2", Failover: true, Loads: loads})
	r.AddRoute(8*sim.Second, Route{Arrival: 1500 * sim.Microsecond, Zone: "z1"})
	r.AddRoute(9*sim.Second, Route{Arrival: 250})
	l.Merge()
	recs := l.Records()
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3", len(recs))
	}
	type want struct {
		subject, winner, detail string
		cands                   []Candidate
		inputs                  []KV
	}
	for i, w := range []want{
		{"srv0#2", "srv0#2", "req@6.000s to srv0#2 in z0",
			[]Candidate{{Name: "srv0#2", Score: 3, Reason: "out=3"}, {Name: "srv1", Score: 5, Reason: "out=5"}},
			[]KV{{Key: "zone", Val: "z0"}, {Key: "failover", Val: "1"}}},
		{"-", "-", "req@1.500ms held back: no live replica in z1", nil, []KV{{Key: "buffered", Val: "1"}}},
		{"-", "-", "req@250ns held back: no routable zone", nil, []KV{{Key: "buffered", Val: "1"}}},
	} {
		r := &recs[i]
		if r.Kind != KindRoute || r.Subject != w.subject || r.Winner != w.winner || r.Detail() != w.detail {
			t.Errorf("record %d: kind %v subject %q winner %q detail %q; want route %q %q %q",
				i, r.Kind, r.Subject, r.Winner, r.Detail(), w.subject, w.winner, w.detail)
		}
		if got := r.Candidates(); !slices.Equal(got, w.cands) {
			t.Errorf("record %d: candidates %+v, want %+v", i, got, w.cands)
		}
		if got := r.Inputs(); !slices.Equal(got, w.inputs) {
			t.Errorf("record %d: inputs %+v, want %+v", i, got, w.inputs)
		}
	}
	if m, ok := recs[0].Margin(); !ok || m != 2 {
		t.Errorf("routed margin = %v, %v; want 2", m, ok)
	}
	if v, ok := recs[0].Input("failover"); !ok || v != "1" {
		t.Errorf(`Input("failover") = %q, %v`, v, ok)
	}
}

// TestRecordSize pins the record at 96 bytes: its operands sit behind
// pointers, so the pending batch, the merged log and the Records join
// copy this much a record. A field that makes it grow fails here.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 96 {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d, want 96", got)
	}
}

// TestAddCopiesBody holds Add to its body rules: the body is copied
// (the caller's may change after), an empty one leaves Body nil, and
// rec's own Body is not read.
func TestAddCopiesBody(t *testing.T) {
	l := NewLog(1, Options{})
	r := l.Ring(0)
	body := Body{Detail: "scale up", Inputs: []KV{{Key: "act", Val: "up"}}}
	r.Add(Record{At: 1, Kind: KindAutoscale, Body: &Body{Detail: "ignored"}}, body)
	body.Detail = "changed"
	r.Add(Record{At: 2, Kind: KindAutoscale}, Body{})
	l.Merge()
	recs := l.Records()
	if got := recs[0].Detail(); got != "scale up" || recs[0].Body == nil {
		t.Fatalf("first record's detail = %q, want the body's as added", got)
	}
	if act, _ := recs[0].Input("act"); act != "up" {
		t.Fatalf("first record's act input = %q, want up", act)
	}
	if recs[1].Body != nil || recs[1].Detail() != "" || recs[1].Inputs() != nil {
		t.Fatalf("empty body stored as %+v", recs[1].Body)
	}
}

// TestAddAllocationFree pins the enabled path at zero allocations per
// record, amortised: Add copies the body into the log's arena, AddRoute
// carves a route's operands and candidates from theirs, and the
// pending batch and the merged chunks are reused at the Total bound.
func TestAddAllocationFree(t *testing.T) {
	l := NewLog(1, Options{Total: 1 << 12})
	r := l.Ring(0)
	inputs := []KV{{Key: "act", Val: "up"}}
	at := sim.Time(0)
	add := func() {
		at++
		r.Add(Record{At: at, Kind: KindAutoscale, Subject: "srv", Winner: "srv"}, Body{Detail: "scale up", Inputs: inputs})
		loads := append(r.Loads(2), Load{Name: "srv0", Out: 1}, Load{Name: "srv1", Out: 2})
		r.AddRoute(at, Route{Arrival: at, Zone: "z0", Winner: "srv0", Loads: loads})
		if at%64 == 0 {
			l.Merge()
		}
	}
	for i := 0; i < 1<<13; i++ {
		add() // past the Total bound, where merged chunks are recycled
	}
	if allocs := testing.AllocsPerRun(1000, add); allocs != 0 {
		t.Fatalf("Add and AddRoute allocate %v times per pair, want 0", allocs)
	}
}
