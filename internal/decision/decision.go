// Package decision is the cluster's "why" audit log: every control-
// plane choice — zone pick, host placement, request route, autoscaler
// step, migration trigger, zone cordon — and the credit scheduler's
// BOOST/preempt calls are recorded as structured Records carrying the
// full candidate set the chooser saw (with per-candidate scores and
// reasons), the winner, and the scalar inputs the decision read.
//
// The log is built for the sharded simulation (DESIGN.md §14): each
// shard appends to its own bounded Ring stamped with a per-ring
// sequence number, and the coordinator merges the rings at every
// barrier under the same canonical (time, shard, order) key the engine
// uses for cross-shard mail — concatenate in shard index order, then a
// stable sort by time. The merged log is therefore byte-identical at
// any worker-pool width, which is what makes a scheduler decision
// trail a goldenable artifact rather than a debug dump.
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

// Record is one audited decision.
type Record struct {
	At         sim.Time // virtual time of the choice
	Shard      int      // origin shard (0 = control plane, i+1 = host i)
	Seq        uint64   // per-shard sequence number (merge tie-break)
	Kind       Kind
	Chooser    string // who decided: "ctl", "host3", ...
	Subject    string // what the decision is about (VM, replica, zone)
	Winner     string // the chosen option ("-" when nothing was chosen)
	Detail     string // one-line human explanation
	Candidates []Candidate
	Inputs     []KV
}

// Input returns the named input value.
func (r *Record) Input(key string) (string, bool) {
	for _, kv := range r.Inputs {
		if kv.Key == key {
			return kv.Val, true
		}
	}
	return "", false
}

// WinnerScore returns the winning candidate's score, when the winner
// appears in the candidate set.
func (r *Record) WinnerScore() (float64, bool) {
	for _, c := range r.Candidates {
		if c.Name == r.Winner {
			return c.Score, true
		}
	}
	return 0, false
}

// RunnerUp returns the best-scoring losing candidate — the
// counterfactual choice.
func (r *Record) RunnerUp() (Candidate, bool) {
	best, found := Candidate{}, false
	for _, c := range r.Candidates {
		if c.Name == r.Winner {
			continue
		}
		if !found || c.Score < best.Score {
			best, found = c, true
		}
	}
	return best, found
}

// Margin is how close the call was: runner-up score minus winner score
// (scores are lower-is-better, so a small positive margin means the
// decision nearly went the other way). Only defined when the winner
// was scored against at least one alternative.
func (r *Record) Margin() (float64, bool) {
	ws, ok := r.WinnerScore()
	if !ok {
		return 0, false
	}
	ru, ok := r.RunnerUp()
	if !ok {
		return 0, false
	}
	return ru.Score - ws, true
}

// Ring is one shard's bounded decision buffer. All methods are
// nil-safe no-ops, so hook sites pay one nil/mask check when the log
// is off. A Ring is single-shard state: written only by its shard's
// window execution (or barrier context) and drained only at barriers,
// the same discipline as the cluster's host outboxes.
//
// The buffer grows on demand, doubling up to limit records, so a log
// whose shards see a few decisions per barrier never allocates the
// full bound.
type Ring struct {
	mask    uint32
	chooser string
	shard   int
	seq     uint64
	buf     []Record
	limit   int // capacity bound (Options.PerShard)
	start   int // index of the oldest record
	n       int
	dropped uint64
}

// Wants reports whether kind k is recorded. Hook sites call this
// before building a Record, so disabled logs never pay for candidate
// formatting.
func (r *Ring) Wants(k Kind) bool {
	return r != nil && r.mask&(1<<uint(k)) != 0
}

// Add appends rec, stamping the ring's shard, chooser, and next
// sequence number. When the ring is full the oldest record is dropped
// (and counted).
func (r *Ring) Add(rec Record) {
	if r == nil {
		return
	}
	rec.Shard = r.shard
	rec.Chooser = r.chooser
	rec.Seq = r.seq
	r.seq++
	if r.n == len(r.buf) {
		if len(r.buf) < r.limit {
			// Full but below the bound: grow. start is 0 here, since
			// it moves only once the ring has reached its bound.
			grown := make([]Record, min(max(2*len(r.buf), 8), r.limit))
			copy(grown, r.buf)
			r.buf = grown
		} else {
			r.start = (r.start + 1) % len(r.buf)
			r.n--
			r.dropped++
		}
	}
	r.buf[(r.start+r.n)%len(r.buf)] = rec
	r.n++
}

// drain appends the ring's records (oldest first) to dst and empties
// the ring.
func (r *Ring) drain(dst []Record) []Record {
	for i := 0; i < r.n; i++ {
		dst = append(dst, r.buf[(r.start+i)%len(r.buf)])
	}
	r.start, r.n = 0, 0
	return dst
}

// Options sizes a decision log.
type Options struct {
	// PerShard is each shard ring's capacity (default 4096 — with
	// barriers every lookahead, a shard would need thousands of
	// decisions per 250µs window to drop anything).
	PerShard int
	// Total bounds the merged log (default 1<<20 records); the oldest
	// are dropped, and counted, beyond it.
	Total int
	// Kinds selects which decision kinds are recorded (empty = all).
	Kinds []Kind
}

func (o Options) withDefaults() Options {
	if o.PerShard <= 0 {
		o.PerShard = 4096
	}
	if o.Total <= 0 {
		o.Total = 1 << 20
	}
	if len(o.Kinds) == 0 {
		o.Kinds = AllKinds()
	}
	return o
}

// Log is the cluster-wide decision log: one Ring per shard, merged at
// barriers into one canonically ordered record sequence.
type Log struct {
	rings   []*Ring
	merged  []Record
	total   int
	dropped uint64
	batch   []Record // merge scratch
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
			mask:    mask,
			shard:   i,
			chooser: "shard" + strconv.Itoa(i),
			limit:   opt.PerShard,
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

// Merge drains every shard ring into the merged log under the
// canonical key: rings are concatenated in shard index order, then
// stable-sorted by time — exactly the (time, shard, order) merge the
// sharded engine applies to cross-shard mail. Called at every barrier
// (and once after the run), where all shards are parked. Nil-safe.
func (l *Log) Merge() {
	if l == nil {
		return
	}
	batch := l.batch[:0]
	for _, r := range l.rings {
		batch = r.drain(batch)
		l.dropped += r.dropped
		r.dropped = 0
	}
	slices.SortStableFunc(batch, func(a, b Record) int { return cmp.Compare(a.At, b.At) })
	l.merged = append(l.merged, batch...)
	l.batch = batch[:0]
	if over := len(l.merged) - l.total; over > 0 {
		l.dropped += uint64(over)
		l.merged = append(l.merged[:0], l.merged[over:]...)
	}
}

// Records returns the merged log in canonical order. The slice is the
// log's own storage; callers must not mutate it.
func (l *Log) Records() []Record {
	if l == nil {
		return nil
	}
	return l.merged
}

// Dropped reports how many records were lost to ring or total bounds.
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
