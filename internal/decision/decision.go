// Package decision is the cluster's "why" audit log: every control-
// plane choice — zone pick, host placement, request route, autoscaler
// step, migration trigger, zone cordon — and the credit scheduler's
// BOOST/preempt calls are recorded as structured Records carrying the
// full candidate set the chooser saw (with per-candidate scores and
// reasons), the winner, and the scalar inputs the decision read.
//
// The log is built for the sharded simulation (DESIGN.md §14): each
// shard writes through its own Ring, which stamps a per-shard sequence
// number and appends to the log's one pending batch, and the
// coordinator merges that batch at every barrier under the canonical
// (time, shard, order) key — a stable sort by time, then shard, taken
// only when the batch is not already in that order. The merged log
// therefore does not depend on the order in which the shards wrote,
// which is what makes a scheduler decision trail a goldenable artifact
// rather than a debug dump.
//
// When no log is attached, every hook site reduces to a nil/mask check
// and zero allocations (see the paired benchmarks in
// internal/hypervisor and internal/cluster); nil *Ring and *Log are
// valid no-op instances, following the internal/obs convention.
package decision

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Kind classifies a scheduler decision.
type Kind int

const (
	// KindZonePick is the outer level of two-level placement: which
	// zone receives an arriving VM.
	KindZonePick Kind = iota + 1
	// KindPlace is host placement inside the chosen zone.
	KindPlace
	// KindRoute is one request dispatch: zone selection plus the
	// intra-zone JSQ replica choice.
	KindRoute
	// KindAutoscale is one autoscaler action (scale-up or drain).
	KindAutoscale
	// KindMigrate is a hot-spot migration trigger: victim and
	// destination choice.
	KindMigrate
	// KindCordon marks a zone cordoned (outage start); KindUncordon
	// the cordon lifting.
	KindCordon
	KindUncordon
	// KindBoost is a credit-scheduler BOOST grant on vCPU wake.
	KindBoost
	// KindPreempt is an involuntary deschedule (timeslice expiry, SA
	// expiry, or a higher-priority wake).
	KindPreempt
)

// kindCount bounds the Kind enum for mask and slice sizing.
const kindCount = int(KindPreempt) + 1

func (k Kind) String() string {
	switch k {
	case KindZonePick:
		return "zone-pick"
	case KindPlace:
		return "place"
	case KindRoute:
		return "route"
	case KindAutoscale:
		return "autoscale"
	case KindMigrate:
		return "migrate"
	case KindCordon:
		return "cordon"
	case KindUncordon:
		return "uncordon"
	case KindBoost:
		return "boost"
	case KindPreempt:
		return "preempt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a kind from its String form.
func ParseKind(s string) (Kind, bool) {
	for _, k := range AllKinds() {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// AllKinds lists every decision kind in enum order.
func AllKinds() []Kind {
	return []Kind{KindZonePick, KindPlace, KindRoute, KindAutoscale,
		KindMigrate, KindCordon, KindUncordon, KindBoost, KindPreempt}
}

// ControlKinds lists the cluster control-plane kinds — everything but
// the per-vCPU boost/preempt stream, whose volume (one record per
// scheduler event on every host) swamps a cluster-length log. This is
// the default recording set for the why experiment and `irsload -why`.
func ControlKinds() []Kind {
	return []Kind{KindZonePick, KindPlace, KindRoute, KindAutoscale,
		KindMigrate, KindCordon, KindUncordon}
}

// ParseKinds parses a comma-separated kind list; "all" and "ctl" name
// the two standard sets. The result is deduplicated and in enum order.
func ParseKinds(s string) ([]Kind, error) {
	switch strings.TrimSpace(s) {
	case "", "all":
		return AllKinds(), nil
	case "ctl":
		return ControlKinds(), nil
	}
	var mask uint32
	for _, part := range strings.Split(s, ",") {
		k, ok := ParseKind(strings.TrimSpace(part))
		if !ok {
			return nil, fmt.Errorf("decision: unknown kind %q", strings.TrimSpace(part))
		}
		mask |= 1 << uint(k)
	}
	var out []Kind
	for _, k := range AllKinds() {
		if mask&(1<<uint(k)) != 0 {
			out = append(out, k)
		}
	}
	return out, nil
}

// Candidate is one option a decision considered. Score is
// lower-is-better at every site (placement scores, outstanding
// request counts), so the winner of a scored decision is the minimum.
type Candidate struct {
	Name   string
	Score  float64
	Reason string
}

// KV is one named scalar input a decision read (headroom,
// interference, burn-rate state, credits...). A slice of pairs keeps
// record rendering deterministic where a map would not be. It is the
// exporters' argument pair, so WriteJSON orders inputs with
// obs.NextArg.
type KV = obs.Arg

// Body is a record's operands in rendered form: a one-line detail,
// the candidate set and the scalar inputs. Records added with Ring.Add
// point to one in the log's arena; route records added with
// Ring.AddRoute keep typed operands instead (see Route) and render
// them on read, so read any record through Record's accessors, not
// through its Body.
type Body struct {
	Detail     string // one-line human explanation
	Candidates []Candidate
	Inputs     []KV
}

// Route is a request dispatch in typed form: the router hands over
// what it already holds, and names, reasons and the detail line are
// rendered only when the record is read or exported.
type Route struct {
	Arrival  sim.Time // the request's arrival stamp
	Zone     string   // the routing zone; "" when no zone was routable
	Winner   string   // the chosen replica's instance name; "" = held back
	Failover bool     // the request was routed away from its home zone
	Loads    []Load   // the ranked replicas, from Ring.Loads (none when held back)
}

// Load is one replica a route decision ranked: its instance name and
// its outstanding request count, the JSQ score.
type Load struct {
	Name string
	Out  int64
}

// Record is one audited decision. It holds its operands by pointer,
// so the pending batch, the merged log and its readers copy 96 bytes a
// record (pinned by TestRecordSize).
type Record struct {
	At      sim.Time // virtual time of the choice
	Shard   int      // origin shard (0 = control plane, i+1 = host i)
	Seq     uint64   // per-shard sequence number (merge tie-break)
	Kind    Kind
	Chooser string // who decided: "ctl", "host3", ...
	Subject string // what the decision is about (VM, replica, zone)
	Winner  string // the chosen option ("-" when nothing was chosen)
	Body    *Body  // rendered operands (nil on typed route records)
	route   *route // typed route operands, in the log's arena
}

// route holds a typed route record's operands; Subject and Winner hold
// the winner's name.
type route struct {
	arrival  sim.Time
	zone     string
	loads    []Load
	failover bool
	held     bool
}

// noBody stands in for a record built without a Body.
var noBody Body

// body returns the record's rendered operands.
func (r *Record) body() *Body {
	if r.Body == nil {
		return &noBody
	}
	return r.Body
}

// Detail returns the record's one-line explanation.
func (r *Record) Detail() string {
	if r.route == nil {
		return r.body().Detail
	}
	return string(r.appendDetail(make([]byte, 0, 64)))
}

// appendDetail appends the record's detail line to b, unescaped.
func (r *Record) appendDetail(b []byte) []byte {
	rt := r.route
	if rt == nil {
		return append(b, r.body().Detail...)
	}
	b = rt.arrival.Append(append(b, "req@"...))
	switch {
	case !rt.held:
		b = append(append(append(b, " to "...), r.Winner...), " in "...)
	case rt.zone == "":
		return append(b, " held back: no routable zone"...)
	default:
		b = append(b, " held back: no live replica in "...)
	}
	return append(b, rt.zone...)
}

// numCandidates returns the size of the candidate set.
func (r *Record) numCandidates() int {
	if r.route != nil {
		return len(r.route.loads)
	}
	return len(r.body().Candidates)
}

// candidateAt returns candidate i. A route candidate's reason is its
// outstanding count, "out=N".
func (r *Record) candidateAt(i int) Candidate {
	if r.route == nil {
		return r.Body.Candidates[i]
	}
	l := r.route.loads[i]
	return Candidate{Name: l.Name, Score: float64(l.Out), Reason: "out=" + strconv.FormatInt(l.Out, 10)}
}

// Candidates returns the candidate set. For a route record it is built
// on each call.
func (r *Record) Candidates() []Candidate {
	if r.route == nil {
		return r.body().Candidates
	}
	out := make([]Candidate, len(r.route.loads))
	for i := range out {
		out[i] = r.candidateAt(i)
	}
	return out
}

// candidate returns candidate i's name and score without rendering
// its reason.
func (r *Record) candidate(i int) (string, float64) {
	if r.route != nil {
		return r.route.loads[i].Name, float64(r.route.loads[i].Out)
	}
	return r.Body.Candidates[i].Name, r.Body.Candidates[i].Score
}

// Inputs returns the scalar inputs. A route record's are built on each
// call: its zone and failover flag, or buffered=1 when it was held
// back.
func (r *Record) Inputs() []KV { return r.inputs(nil) }

// inputs is Inputs building a route record's inputs into dst.
func (r *Record) inputs(dst []KV) []KV {
	rt := r.route
	switch {
	case rt == nil:
		return r.body().Inputs
	case rt.held:
		return append(dst, KV{Key: "buffered", Val: "1"})
	}
	dst = append(dst, KV{Key: "zone", Val: rt.zone})
	if rt.failover {
		dst = append(dst, KV{Key: "failover", Val: "1"})
	}
	return dst
}

// Input returns the named input value.
func (r *Record) Input(key string) (string, bool) {
	var buf [2]KV
	for _, kv := range r.inputs(buf[:0]) {
		if kv.Key == key {
			return kv.Val, true
		}
	}
	return "", false
}

// WinnerScore returns the winning candidate's score, when the winner
// appears in the candidate set.
func (r *Record) WinnerScore() (float64, bool) {
	i := r.winner()
	if i < 0 {
		return 0, false
	}
	_, score := r.candidate(i)
	return score, true
}

// winner returns the index of the first candidate named the winner,
// or -1 when the winner is not in the candidate set.
func (r *Record) winner() int {
	for i := 0; i < r.numCandidates(); i++ {
		if name, _ := r.candidate(i); name == r.Winner {
			return i
		}
	}
	return -1
}

// RunnerUp returns the best-scoring losing candidate — the
// counterfactual choice.
func (r *Record) RunnerUp() (Candidate, bool) {
	i := r.runnerUp()
	if i < 0 {
		return Candidate{}, false
	}
	return r.candidateAt(i), true
}

// runnerUp returns the index of the best-scoring losing candidate, or
// -1 when every candidate is the winner.
func (r *Record) runnerUp() int {
	best, bestScore := -1, 0.0
	for i := 0; i < r.numCandidates(); i++ {
		if name, score := r.candidate(i); name != r.Winner && (best < 0 || score < bestScore) {
			best, bestScore = i, score
		}
	}
	return best
}

// Margin is how close the call was: runner-up score minus winner score
// (scores are lower-is-better, so a small positive margin means the
// decision nearly went the other way). Only defined when the winner
// was scored against at least one alternative.
func (r *Record) Margin() (float64, bool) {
	w, i := r.winner(), r.runnerUp()
	if w < 0 || i < 0 {
		return 0, false
	}
	_, ws := r.candidate(w)
	_, rs := r.candidate(i)
	return rs - ws, true
}

// exactInt bounds, in magnitude, the integers the exporters write with
// integer formatting: below it a float64 holds an integer exactly, so
// strconv.AppendInt gives the bytes the float formatters would.
const exactInt = 1 << 53

// intScore returns candidate i's score as an integer when it is a
// typed route candidate's outstanding count below exactInt.
func (r *Record) intScore(i int) (int64, bool) {
	if r.route == nil {
		return 0, false
	}
	out := r.route.loads[i].Out
	return out, -exactInt < out && out < exactInt
}

// Ring is one shard's writer handle on the log: it stamps the shard,
// chooser and per-shard sequence number onto each record and appends
// it to the log's pending batch. All methods are nil-safe no-ops, so
// hook sites pay one nil/mask check when the log is off. Shards run one
// after another on one goroutine, so every Ring of a log writes to the
// one batch without coordination.
type Ring struct {
	log     *Log
	mask    uint32
	chooser string
	shard   int
	seq     uint64
}

// Wants reports whether kind k is recorded. Hook sites call this
// before building a Record, so disabled logs never pay for candidate
// formatting.
func (r *Ring) Wants(k Kind) bool {
	return r != nil && r.mask&(1<<uint(k)) != 0
}

// Add appends rec with body as its operands, stamping the ring's
// shard, chooser, and next sequence number. The body is copied into
// the log's arena, so a hook site builds it on its own stack and the
// record costs no allocation of its own; an empty body takes no room,
// and the record's Body is nil. rec's own Body is not read.
func (r *Ring) Add(rec Record, body Body) {
	if r == nil {
		return
	}
	rec.Body = nil
	if body.Detail != "" || body.Candidates != nil || body.Inputs != nil {
		rec.Body = &r.log.bodies.take(1)[0]
		*rec.Body = body
	}
	r.add(&rec)
}

// Loads returns an empty candidate list with room for n replicas,
// carved from the log's arena, for the next AddRoute. Nil-safe.
func (r *Ring) Loads(n int) []Load {
	if r == nil {
		return nil
	}
	return r.log.loads.take(n)[:0]
}

// AddRoute appends a typed route record at virtual time at. A
// held-back request (rt.Winner "") records "-" as subject and winner.
func (r *Ring) AddRoute(at sim.Time, rt Route) {
	if r == nil {
		return
	}
	op := &r.log.routes.take(1)[0]
	*op = route{arrival: rt.Arrival, zone: rt.Zone, failover: rt.Failover, held: rt.Winner == ""}
	rec := Record{At: at, Kind: KindRoute, Subject: "-", Winner: "-", route: op}
	if !op.held {
		rec.Subject, rec.Winner = rt.Winner, rt.Winner
		op.loads = rt.Loads
	}
	r.add(&rec)
}

func (r *Ring) add(rec *Record) {
	rec.Shard = r.shard
	rec.Chooser = r.chooser
	rec.Seq = r.seq
	r.seq++
	l := r.log
	if len(l.pending) == cap(l.pending) && l.phead > len(l.pending)/2 {
		// Reuse the dropped prefix instead of growing.
		k := copy(l.pending, l.pending[l.phead:])
		l.pending = l.pending[:k]
		l.phead = 0
	}
	l.pending = append(l.pending, *rec)
	if len(l.pending)-l.phead > l.total {
		// A writer that never merges: drop the batch's oldest now, as
		// Merge would, so it holds at most Total records.
		l.phead++
		l.dropped++
	}
}

// Options sizes a decision log.
type Options struct {
	// Total bounds the merged log (default 1<<20 records); the oldest
	// are dropped, and counted, beyond it. The pending batch is held
	// to it as records are added, so a writer that never merges keeps
	// at most Total records too.
	Total int
	// Kinds selects which decision kinds are recorded (empty = all).
	Kinds []Kind
}

func (o Options) withDefaults() Options {
	if o.Total <= 0 {
		o.Total = 1 << 20
	}
	if len(o.Kinds) == 0 {
		o.Kinds = AllKinds()
	}
	return o
}

// chunkLen caps the size of one merged-log chunk.
const chunkLen = 1024

// arenaBytes sizes one arena chunk.
const arenaBytes = 32 << 10

// arena hands out runs of T from chunks of about arenaBytes that are
// never moved or reused: a record may point into a chunk for as long
// as it lives, and the collector frees the chunk once no record does.
type arena[T any] struct {
	chunk []T // the current chunk; its len is its fill
}

// take returns the next n zeroed elements, capped at n.
func (a *arena[T]) take(n int) []T {
	if cap(a.chunk)-len(a.chunk) < n {
		var zero T
		a.chunk = make([]T, 0, max(n, arenaBytes/int(unsafe.Sizeof(zero))))
	}
	at := len(a.chunk)
	a.chunk = a.chunk[:at+n]
	return a.chunk[at : at+n : at+n]
}

// Log is the cluster-wide decision log: one Ring per shard, all
// appending to one pending batch that Merge sorts into canonical order
// at every barrier.
//
// The merged records live in chunks that are appended to and never
// moved, so the log is not re-copied as it grows; past Total, dropping
// the oldest only advances head, and a chunk is recycled once all of
// its records are dropped. A pending batch past Total drops its oldest
// in add order by advancing phead, which for a batch in key order is
// the record Merge would drop, and reuses the dropped prefix once that
// is half of it. A record's operands live in arenas beside the log:
// the Body of a record added with Add, and a route record's typed
// operands and ranked candidates.
type Log struct {
	rings   []*Ring
	pending []Record // records added since the last Merge, from phead
	phead   int      // records of pending already dropped
	bodies  arena[Body]
	routes  arena[route]
	loads   arena[Load]
	chunks  [][]Record // oldest first; each chunk's len is its fill
	head    int        // records of chunks[0] already dropped
	n       int        // records held
	spare   []Record   // a dropped full-size chunk, for the next one
	total   int
	dropped uint64
}

// NewLog builds a log with shards rings.
func NewLog(shards int, opt Options) *Log {
	opt = opt.withDefaults()
	var mask uint32
	for _, k := range opt.Kinds {
		if int(k) > 0 && int(k) < kindCount {
			mask |= 1 << uint(k)
		}
	}
	l := &Log{total: opt.Total}
	for i := 0; i < shards; i++ {
		l.rings = append(l.rings, &Ring{
			log:     l,
			mask:    mask,
			shard:   i,
			chooser: "shard" + strconv.Itoa(i),
		})
	}
	return l
}

// Ring returns shard i's ring. A nil log returns a nil ring, so
// wiring code needs no conditionals.
func (l *Log) Ring(i int) *Ring {
	if l == nil || i < 0 || i >= len(l.rings) {
		return nil
	}
	return l.rings[i]
}

// Label names shard i's chooser (e.g. "ctl", "host3"). Nil-safe.
func (l *Log) Label(i int, chooser string) {
	if r := l.Ring(i); r != nil {
		r.chooser = chooser
	}
}

// byTimeShard orders records by time, then shard. It takes pointers,
// so Merge's check of every barrier's batch copies no records.
func byTimeShard(a, b *Record) int {
	return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Shard, b.Shard))
}

// Merge moves the pending batch into the merged log under the
// canonical (time, shard, seq) key: a stable sort by time then shard,
// since insertion order already is seq order within a shard. The key
// needs the shard: at one barrier instant the control shard and host
// shards write interleaved records (placement, then the boot it
// triggers), and shard order, not write order, decides between them.
// Called at every barrier (and once after the run). Nil-safe.
func (l *Log) Merge() {
	if l == nil {
		return
	}
	batch := l.pending[l.phead:]
	// Most barriers merge a few records already in key order; sort only
	// when the batch is not.
	for i := 1; i < len(batch); i++ {
		if byTimeShard(&batch[i-1], &batch[i]) > 0 {
			slices.SortStableFunc(batch, func(a, b Record) int { return byTimeShard(&a, &b) })
			break
		}
	}
	for rest := batch; len(rest) > 0; {
		last := len(l.chunks) - 1
		if last < 0 || len(l.chunks[last]) == cap(l.chunks[last]) {
			// Chunks start small and grow with the log up to chunkLen;
			// at the Total bound the chunk just dropped is reused.
			next := l.spare
			if next == nil {
				next = make([]Record, 0, min(max(l.n, 64), chunkLen))
			}
			l.chunks, l.spare = append(l.chunks, next[:0]), nil
			last++
		}
		c := l.chunks[last]
		k := min(len(rest), cap(c)-len(c))
		l.chunks[last] = append(c, rest[:k]...)
		l.n += k
		rest = rest[k:]
	}
	l.pending = l.pending[:0]
	l.phead = 0
	for l.n > l.total {
		k := min(l.n-l.total, len(l.chunks[0])-l.head)
		l.head += k
		l.n -= k
		l.dropped += uint64(k)
		if l.head == len(l.chunks[0]) {
			if cap(l.chunks[0]) == chunkLen {
				l.spare = l.chunks[0]
			}
			l.chunks[0] = nil
			l.chunks = l.chunks[1:]
			l.head = 0
		}
	}
}

// Records returns the merged log in canonical order. The slice is the
// log's own storage: callers must not mutate it, and a Merge past
// Total may overwrite it. A log held in more than one chunk is first
// joined into one, so repeated calls between merges copy nothing.
func (l *Log) Records() []Record {
	if l == nil || l.n == 0 {
		return nil
	}
	if len(l.chunks) > 1 {
		flat := make([]Record, 0, l.n)
		flat = append(flat, l.chunks[0][l.head:]...)
		for _, c := range l.chunks[1:] {
			flat = append(flat, c...)
		}
		l.chunks = append(l.chunks[:0], flat)
		clear(l.chunks[1:cap(l.chunks)])
		l.head = 0
	}
	return l.chunks[0][l.head:]
}

// Dropped reports how many records were dropped past the Total bound.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Counts returns per-kind record totals, indexed by Kind.
func Counts(recs []Record) []int {
	out := make([]int, kindCount)
	for i := range recs {
		if k := int(recs[i].Kind); k > 0 && k < kindCount {
			out[k]++
		}
	}
	return out
}

// CountsString renders non-zero per-kind totals in enum order, e.g.
// "place=10 route=21011 cordon=1".
func CountsString(recs []Record) string {
	counts := Counts(recs)
	var b strings.Builder
	for _, k := range AllKinds() {
		if counts[k] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, counts[k])
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// TrailStep is one labeled step of an incident trail.
type TrailStep struct {
	Label string
	Rec   Record
}

// Trail reduces a record sequence to its elasticity story: every
// cordon, the first failover route after each cordon (the moment
// traffic actually moved), and every autoscaler action. Routine
// steady-state decisions (placements, the other ~10^4 routes,
// migrations, uncordons) stay queryable but are not trail steps —
// the trail is the sequence a human would recount about the incident:
// cordon → failover → scale-up… → drain…
func Trail(recs []Record) []TrailStep {
	var out []TrailStep
	awaitFailover := false
	for i := range recs {
		r := recs[i]
		switch r.Kind {
		case KindCordon:
			out = append(out, TrailStep{Label: "cordon", Rec: r})
			awaitFailover = true
		case KindUncordon:
			awaitFailover = false
		case KindRoute:
			if awaitFailover {
				if _, ok := r.Input("failover"); ok {
					out = append(out, TrailStep{Label: "failover", Rec: r})
					awaitFailover = false
				}
			}
		case KindAutoscale:
			label := "scale-up"
			if act, _ := r.Input("act"); act == "down" {
				label = "drain"
			}
			out = append(out, TrailStep{Label: label, Rec: r})
		}
	}
	return out
}

// TrailString renders a trail as its comma-separated step labels —
// the form the `irsload -trail` gate compares.
func TrailString(steps []TrailStep) string {
	var b strings.Builder
	for i, s := range steps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.Label)
	}
	return b.String()
}

// ClosestCalls returns the n scored decisions with the smallest
// winner-vs-runner-up margin — the counterfactual summary: where the
// schedule nearly went differently. Ties (and equal margins) keep
// canonical log order.
func ClosestCalls(recs []Record, n int) []Record {
	type scored struct {
		rec    Record
		margin float64
	}
	var calls []scored
	for i := range recs {
		if m, ok := recs[i].Margin(); ok {
			calls = append(calls, scored{rec: recs[i], margin: m})
		}
	}
	sort.SliceStable(calls, func(i, j int) bool { return calls[i].margin < calls[j].margin })
	if n > len(calls) {
		n = len(calls)
	}
	out := make([]Record, 0, n)
	for _, c := range calls[:n] {
		out = append(out, c.rec)
	}
	return out
}
