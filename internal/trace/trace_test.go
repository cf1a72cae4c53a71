package trace

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRecordAndEvents(t *testing.T) {
	l := NewLog(0)
	l.Record(10, KindSA, "fg/v0", "sent")
	l.Migrate(20, "task-1", 0, 1)
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
	evs := l.Events()
	if evs[0].At != 10 || evs[0].Kind != KindSA {
		t.Fatalf("bad first event: %+v", evs[0])
	}
	if evs[1].Detail != "cpu0 -> cpu1" {
		t.Fatalf("bad formatted detail: %q", evs[1].Detail)
	}
}

func TestRingEviction(t *testing.T) {
	l := NewLog(3)
	for i := 0; i < 10; i++ {
		l.Record(sim.Time(i), KindNote, "s", "")
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	if l.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", l.Dropped())
	}
	if l.Events()[0].At != 7 {
		t.Fatalf("oldest retained = %v, want 7", l.Events()[0].At)
	}
}

func TestFilter(t *testing.T) {
	l := NewLog(0)
	l.Record(1, KindSA, "a", "sent")
	l.Record(2, KindSA, "b", "sent")
	l.Record(3, KindTask, "a", "blocked")
	if got := len(l.Filter(KindSA, "")); got != 2 {
		t.Fatalf("Filter(SA) = %d", got)
	}
	if got := len(l.Filter(KindSA, "a")); got != 1 {
		t.Fatalf("Filter(SA, a) = %d", got)
	}
	if got := len(l.Filter(KindMigrate, "")); got != 0 {
		t.Fatalf("Filter(Migrate) = %d", got)
	}
}

func TestDumpWindow(t *testing.T) {
	l := NewLog(0)
	for i := 0; i < 10; i++ {
		l.Record(sim.Time(i)*sim.Millisecond, KindNote, "s", "x")
	}
	var b strings.Builder
	if err := l.Dump(&b, 3*sim.Millisecond, 5*sim.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	events, closing, _ := strings.Cut(b.String(), "\n\n")
	if lines := strings.Count(events+"\n", "\n"); lines != 3 {
		t.Fatalf("dumped %d event lines, want 3 (t=3,4,5ms):\n%s", lines, b.String())
	}
	want := "3 events shown (window 3.000ms..5.000ms, 0 dropped at capacity); totals: note=10\n"
	if closing != want {
		t.Fatalf("closing line = %q, want %q", closing, want)
	}
}

func TestDumpFiltersKinds(t *testing.T) {
	l := NewLog(0)
	l.Record(1, KindSA, "fg/v0", "sent")
	l.Record(2, KindSwitch, "p0", "run fg/v0")
	l.Record(3, KindNote, "s", "x")
	var b strings.Builder
	if err := l.Dump(&b, 0, 0, map[Kind]bool{KindSA: true, KindNote: true}); err != nil {
		t.Fatal(err)
	}
	want := "         1ns sa       fg/v0        sent\n" +
		"         3ns note     s            x\n" +
		"\n2 events shown (window 0ns..0ns, 0 dropped at capacity); totals: switch=1 sa=1 note=1\n"
	if got := b.String(); got != want {
		t.Fatalf("dump =\n%q\nwant\n%q", got, want)
	}
}

func TestSummary(t *testing.T) {
	l := NewLog(0)
	l.Record(1, KindSA, "a", "")
	l.Record(2, KindSA, "a", "")
	l.Record(3, KindSwitch, "p0", "")
	s := l.Summary()
	if !strings.Contains(s, "sa=2") || !strings.Contains(s, "switch=1") {
		t.Fatalf("summary = %q", s)
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	l := NewLog(2)
	l.Record(1, KindNote, "a", "")
	l.Record(2, KindNote, "b", "")
	evs := l.Events()
	// Recording past the limit evicts underneath; the earlier slice must
	// be insulated from that.
	l.Record(3, KindNote, "c", "")
	if evs[0].At != 1 || evs[1].At != 2 {
		t.Fatalf("snapshot mutated by later Record: %+v", evs)
	}
	evs[0].Subject = "mutated"
	if l.Events()[0].Subject == "mutated" {
		t.Fatal("caller writes must not reach the log's ring")
	}
}

func TestDroppedAccumulatesAcrossEvictions(t *testing.T) {
	l := NewLog(2)
	for i := 0; i < 5; i++ {
		l.Record(sim.Time(i), KindNote, "s", "")
	}
	if l.Dropped() != 3 {
		t.Fatalf("dropped = %d after first overflow burst, want 3", l.Dropped())
	}
	for i := 5; i < 9; i++ {
		l.Record(sim.Time(i), KindNote, "s", "")
	}
	// Eviction count must accumulate across separate bursts, not reset.
	if l.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", l.Dropped())
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2", l.Len())
	}
	if got := l.Events()[0].At; got != 7 {
		t.Fatalf("oldest retained = %v, want 7", got)
	}
}

func TestDumpWindowUnbounded(t *testing.T) {
	l := NewLog(0)
	for i := 0; i < 4; i++ {
		l.Record(sim.Time(i)*sim.Millisecond, KindNote, "s", "x")
	}
	// to == 0 means no upper bound: everything from 2 ms on.
	var b strings.Builder
	if err := l.Dump(&b, 2*sim.Millisecond, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\n2 events shown") {
		t.Fatalf("dump = %q, want 2 events (t=2,3ms)", b.String())
	}
}

func TestDumpReportsDropped(t *testing.T) {
	l := NewLog(1)
	l.Record(1, KindNote, "s", "")
	l.Record(2, KindNote, "s", "")
	var b strings.Builder
	if err := l.Dump(&b, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "1 events shown (window 0ns..0ns, 1 dropped at capacity)") {
		t.Fatalf("dump = %q", b.String())
	}
}

func TestSummaryOrdering(t *testing.T) {
	l := NewLog(0)
	// Record in reverse declaration order; Summary must render in fixed
	// kind order (vcpu, switch, sa, ...) regardless.
	l.Record(1, KindMigrate, "t", "")
	l.Record(2, KindSA, "v", "")
	l.Record(3, KindSA, "v", "")
	l.Record(4, KindVCPUState, "v", "")
	if got := l.Summary(); got != "vcpu=1 sa=2 migrate=1" {
		t.Fatalf("summary = %q", got)
	}
	empty := NewLog(0)
	if got := empty.Summary(); got != "" {
		t.Fatalf("empty summary = %q", got)
	}
}

func TestParseKinds(t *testing.T) {
	if m, err := ParseKinds(""); m != nil || err != nil {
		t.Fatalf("empty filter = %v, %v", m, err)
	}
	m, err := ParseKinds(" sa, migrate ")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || !m[KindSA] || !m[KindMigrate] {
		t.Fatalf("parsed = %v", m)
	}
	if _, err := ParseKinds("sa,bogus"); err == nil ||
		!strings.Contains(err.Error(), `"bogus"`) ||
		!strings.Contains(err.Error(), "vcpu") {
		t.Fatalf("unknown kind error = %v", err)
	}
	// Every advertised name must parse, and KindNames must cover every
	// declared kind.
	names := KindNames()
	if len(names) != int(KindNote) {
		t.Fatalf("KindNames lists %d kinds, want %d", len(names), int(KindNote))
	}
	for _, n := range names {
		if _, err := ParseKinds(n); err != nil {
			t.Errorf("valid kind %q rejected: %v", n, err)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 5 * sim.Millisecond, Kind: KindSA, Subject: "fg/v0", Detail: "sent"}
	s := e.String()
	if !strings.Contains(s, "5.000ms") || !strings.Contains(s, "sa") || !strings.Contains(s, "fg/v0") {
		t.Fatalf("event string = %q", s)
	}
}

// TestDetailPerRecordKind pins the exact rendered text of every typed
// record: it must match what the hypervisor and guest used to format
// with fmt, byte for byte, so rendered dumps and incident bundles keep
// their text.
func TestDetailPerRecordKind(t *testing.T) {
	l := NewLog(0)
	l.Record(1, KindSA, "fg/v0", "sent")
	l.Transition(2, "fg/v0", "runnable", "running")
	l.Blackout(3, "fg/v1", 250*sim.Millisecond)
	l.Switch(4, "p2", "fg/v0", "BOOST")
	l.SAAcked(5, "fg/v0", 20*sim.Microsecond, "runnable")
	l.SAAcked(6, "fg/v0", 999, "blocked")
	l.TaskBlocked(7, "t3", 1)
	l.TaskWoken(8, "t3", 0)
	l.Migrate(9, "t3", -1, 2)
	l.Migrate(10, "t4", 3, 0)
	want := []Event{
		{1, KindSA, "fg/v0", "sent"},
		{2, KindVCPUState, "fg/v0", "runnable -> running"},
		{3, KindVCPUState, "fg/v1", "blackout for 250.000ms"},
		{4, KindSwitch, "p2", "run fg/v0 (BOOST)"},
		{5, KindSA, "fg/v0", "acked after 20.000µs (runnable)"},
		{6, KindSA, "fg/v0", "acked after 999ns (blocked)"},
		{7, KindTask, "t3", "blocked on cpu1"},
		{8, KindTask, "t3", "woken on cpu0"},
		{9, KindMigrate, "t3", "cpu-1 -> cpu2"},
		{10, KindMigrate, "t4", "cpu3 -> cpu0"},
	}
	if got := l.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("events =\n%v\nwant\n%v", got, want)
	}
}

// refLog is the append-and-evict log the typed ring replaced, kept as
// the oracle: it formats every detail up front and reslices past the
// limit.
type refLog struct {
	limit   int
	events  []Event
	dropped uint64
}

func (r *refLog) add(at sim.Time, kind Kind, subject, format string, args ...any) {
	r.events = append(r.events, Event{At: at, Kind: kind, Subject: subject, Detail: fmt.Sprintf(format, args...)})
	if r.limit > 0 && len(r.events) > r.limit {
		over := len(r.events) - r.limit
		r.events = r.events[over:]
		r.dropped += uint64(over)
	}
}

// stringer stands in for the hypervisor's state and priority enums,
// which the old call sites handed to fmt's %s verb.
type stringer string

func (s stringer) String() string { return string(s) }

// recordBoth appends the i-th event of a fixed rotation of every
// record kind to the ring and to the reference.
func recordBoth(l *Log, ref *refLog, i int) {
	at := sim.Time(i) * 7 * sim.Microsecond
	subj := fmt.Sprintf("s%d", i%3)
	switch i % 8 {
	case 0:
		l.Record(at, KindSA, subj, "sent")
		ref.add(at, KindSA, subj, "sent")
	case 1:
		l.Transition(at, subj, "running", "blocked")
		ref.add(at, KindVCPUState, subj, "%s -> %s", stringer("running"), stringer("blocked"))
	case 2:
		l.Blackout(at, subj, sim.Time(i)*sim.Millisecond)
		ref.add(at, KindVCPUState, subj, "blackout for %s", sim.Time(i)*sim.Millisecond)
	case 3:
		l.Switch(at, "p1", subj, "UNDER")
		ref.add(at, KindSwitch, "p1", "run %s (%s)", subj, stringer("UNDER"))
	case 4:
		l.SAAcked(at, subj, sim.Time(i)*sim.Microsecond, "runnable")
		ref.add(at, KindSA, subj, "acked after %s (%s)", sim.Time(i)*sim.Microsecond, stringer("runnable"))
	case 5:
		l.TaskBlocked(at, subj, i%4)
		ref.add(at, KindTask, subj, "blocked on cpu%d", i%4)
	case 6:
		l.TaskWoken(at, subj, i%5)
		ref.add(at, KindTask, subj, "woken on cpu%d", i%5)
	case 7:
		l.Migrate(at, subj, i%3-1, i%4)
		ref.add(at, KindMigrate, subj, "cpu%d -> cpu%d", i%3-1, i%4)
	}
}

// TestRingMatchesAppendEvictLog drives the ring and the reference log
// through the same stream at limits above, at, and far below the event
// count (many wraparounds), and compares every read view.
func TestRingMatchesAppendEvictLog(t *testing.T) {
	cases := []struct{ limit, n int }{
		{0, 0}, {0, 37}, {1, 5}, {3, 3}, {3, 4}, {5, 23}, {8, 64}, {16, 15}, {64, 1000},
		// Limits spanning several storage chunks, one not a multiple
		// of the chunk length, and an unbounded log past one chunk.
		{300, 299}, {300, 1000}, {2 * chunkLen, 5 * chunkLen}, {0, chunkLen + 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("limit%d_n%d", tc.limit, tc.n), func(t *testing.T) {
			l, ref := NewLog(tc.limit), &refLog{limit: tc.limit}
			for i := 0; i < tc.n; i++ {
				recordBoth(l, ref, i)
			}
			if l.Len() != len(ref.events) || l.Dropped() != ref.dropped {
				t.Fatalf("len/dropped = %d/%d, want %d/%d", l.Len(), l.Dropped(), len(ref.events), ref.dropped)
			}
			if got := l.Events(); !reflect.DeepEqual(got, append([]Event{}, ref.events...)) {
				t.Fatalf("events =\n%v\nwant\n%v", got, ref.events)
			}
			for _, n := range []int{-1, 0, 1, 2, tc.limit, tc.n + 1} {
				want := ref.events
				if n < 0 {
					want = want[:0]
				} else if n < len(want) {
					want = want[len(want)-n:]
				}
				if got := l.Tail(n); !reflect.DeepEqual(got, append([]Event{}, want...)) {
					t.Fatalf("Tail(%d) =\n%v\nwant\n%v", n, got, want)
				}
			}
			for k := KindVCPUState; k <= KindNote; k++ {
				for _, subj := range []string{"", "s1", "p1"} {
					var want []Event
					for _, e := range ref.events {
						if e.Kind == k && (subj == "" || e.Subject == subj) {
							want = append(want, e)
						}
					}
					if got := l.Filter(k, subj); !reflect.DeepEqual(got, want) {
						t.Fatalf("Filter(%v, %q) =\n%v\nwant\n%v", k, subj, got, want)
					}
				}
			}
			wantSum := map[Kind]int{}
			for _, e := range ref.events {
				wantSum[e.Kind]++
			}
			var sb strings.Builder
			for k := KindVCPUState; k <= KindNote; k++ {
				if wantSum[k] > 0 {
					fmt.Fprintf(&sb, "%s=%d ", k, wantSum[k])
				}
			}
			if got := l.Summary(); got != strings.TrimSpace(sb.String()) {
				t.Fatalf("Summary = %q, want %q", got, strings.TrimSpace(sb.String()))
			}
			from, to := 35*sim.Microsecond, sim.Time(tc.n)*5*sim.Microsecond
			var wantDump strings.Builder
			shown := 0
			for _, e := range ref.events {
				if e.At >= from && (to == 0 || e.At <= to) && e.Kind != KindNote {
					fmt.Fprintln(&wantDump, e)
					shown++
				}
			}
			fmt.Fprintf(&wantDump, "\n%d events shown (window %v..%v, %d dropped at capacity); totals: %s\n",
				shown, from, to, ref.dropped, strings.TrimSpace(sb.String()))
			notNote := map[Kind]bool{}
			for k := KindVCPUState; k < KindNote; k++ {
				notNote[k] = true
			}
			var dump strings.Builder
			if err := l.Dump(&dump, from, to, notNote); err != nil {
				t.Fatal(err)
			}
			if dump.String() != wantDump.String() {
				t.Fatalf("Dump =\n%s\nwant\n%s", dump.String(), wantDump.String())
			}
		})
	}
}

// TestRecordAllocsNothing pins the recording side at zero allocations
// once the ring has grown to its limit: every record method copies
// operands into a slot and formats nothing.
func TestRecordAllocsNothing(t *testing.T) {
	l := NewLog(16)
	for i := 0; i < 16; i++ {
		l.Record(0, KindNote, "warm", "")
	}
	allocs := testing.AllocsPerRun(100, func() {
		l.Record(1, KindSA, "fg/v0", "sent")
		l.Transition(2, "fg/v0", "runnable", "running")
		l.Blackout(3, "fg/v0", sim.Millisecond)
		l.Switch(4, "p0", "fg/v0", "UNDER")
		l.SAAcked(5, "fg/v0", sim.Microsecond, "runnable")
		l.TaskBlocked(6, "t0", 1)
		l.TaskWoken(7, "t0", 1)
		l.Migrate(8, "t0", 0, 1)
	})
	if allocs != 0 {
		t.Fatalf("recording allocates %.1f/op, want 0", allocs)
	}
}
