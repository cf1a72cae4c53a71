package decision

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// The query grammar is a space-separated clause list with t>/t<
// bounds, not the comma-separated kv grammar of the other specs:
//
//	kind=place,route vm=srv0 chooser=ctl winner=host3 t>40ms t<6s
//
// Clauses AND together. kind takes a comma-separated kind list; vm
// matches the record's subject by logical VM name (migration
// generations like "srv0#2" match vm=srv0); t> and t< bound the
// decision time strictly. "" and "all" are the match-everything query.
// String() renders the canonical form (fixed clause order, kinds in
// enum order) and ParseQuery(q.String()) round-trips exactly — the
// property FuzzParseQuery pins.

// Query is a parsed decision filter.
type Query struct {
	Kinds   []Kind // deduplicated, enum order; empty matches all
	VM      string
	Chooser string
	Winner  string
	After   sim.Time // t>: strictly later than this (0 = unset)
	Before  sim.Time // t<: strictly earlier than this (0 = unset)
}

// ParseQuery parses the filter grammar.
func ParseQuery(s string) (Query, error) {
	var q Query
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return q, nil
	}
	seen := map[string]bool{}
	for _, clause := range strings.Fields(s) {
		switch {
		case strings.HasPrefix(clause, "t>"), strings.HasPrefix(clause, "t<"):
			key := clause[:2]
			if seen[key] {
				return Query{}, fmt.Errorf("decision: duplicate %q clause", key)
			}
			seen[key] = true
			d, err := time.ParseDuration(clause[2:])
			if err != nil {
				return Query{}, fmt.Errorf("decision: bad duration in %q: %v", clause, err)
			}
			if d < 0 {
				return Query{}, fmt.Errorf("decision: negative duration in %q", clause)
			}
			if key == "t>" {
				q.After = sim.Duration(d)
			} else {
				q.Before = sim.Duration(d)
			}
		default:
			key, val, ok := strings.Cut(clause, "=")
			if !ok || val == "" {
				return Query{}, fmt.Errorf("decision: clause %q is not key=value", clause)
			}
			if seen[key] {
				return Query{}, fmt.Errorf("decision: duplicate %q clause", key)
			}
			seen[key] = true
			switch key {
			case "kind":
				var mask uint32
				for _, part := range strings.Split(val, ",") {
					k, kok := ParseKind(part)
					if !kok {
						return Query{}, fmt.Errorf("decision: unknown kind %q", part)
					}
					if mask&(1<<uint(k)) != 0 {
						return Query{}, fmt.Errorf("decision: duplicate kind %q", part)
					}
					mask |= 1 << uint(k)
					q.Kinds = append(q.Kinds, k)
				}
				sort.Slice(q.Kinds, func(i, j int) bool { return q.Kinds[i] < q.Kinds[j] })
			case "vm":
				q.VM = val
			case "chooser":
				q.Chooser = val
			case "winner":
				q.Winner = val
			default:
				return Query{}, fmt.Errorf("decision: unknown clause key %q (want kind/vm/chooser/winner/t>/t<)", key)
			}
		}
	}
	if q.After > 0 && q.Before > 0 && q.Before <= q.After {
		return Query{}, fmt.Errorf("decision: empty time window t>%v t<%v", q.After, q.Before)
	}
	return q, nil
}

// String renders the canonical query form; ParseQuery round-trips it.
func (q Query) String() string {
	var parts []string
	if len(q.Kinds) > 0 {
		names := make([]string, len(q.Kinds))
		for i, k := range q.Kinds {
			names[i] = k.String()
		}
		parts = append(parts, "kind="+strings.Join(names, ","))
	}
	if q.VM != "" {
		parts = append(parts, "vm="+q.VM)
	}
	if q.Chooser != "" {
		parts = append(parts, "chooser="+q.Chooser)
	}
	if q.Winner != "" {
		parts = append(parts, "winner="+q.Winner)
	}
	if q.After > 0 {
		parts = append(parts, "t>"+q.After.Std().String())
	}
	if q.Before > 0 {
		parts = append(parts, "t<"+q.Before.Std().String())
	}
	if len(parts) == 0 {
		return "all"
	}
	return strings.Join(parts, " ")
}

// matchVM reports whether subject names the logical VM want: exact, or
// a migration generation of it ("srv0#2" matches "srv0").
func matchVM(subject, want string) bool {
	if subject == want {
		return true
	}
	base, _, ok := strings.Cut(subject, "#")
	return ok && base == want
}

// Match reports whether rec satisfies every clause.
func (q Query) Match(rec *Record) bool {
	if len(q.Kinds) > 0 {
		hit := false
		for _, k := range q.Kinds {
			if rec.Kind == k {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	if q.VM != "" && !matchVM(rec.Subject, q.VM) {
		return false
	}
	if q.Chooser != "" && rec.Chooser != q.Chooser {
		return false
	}
	if q.Winner != "" && rec.Winner != q.Winner {
		return false
	}
	if q.After > 0 && rec.At <= q.After {
		return false
	}
	if q.Before > 0 && rec.At >= q.Before {
		return false
	}
	return true
}

// Filter returns the records matching q, in input order.
func Filter(recs []Record, q Query) []Record {
	var out []Record
	for i := range recs {
		if q.Match(&recs[i]) {
			out = append(out, recs[i])
		}
	}
	return out
}
