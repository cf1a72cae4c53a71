package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// coordinator is the barrier side of what the FuzzShardedCoordinator
// rig drives: the live ShardedEngine or the reference refSharded.
type coordinator interface {
	Now() Time
	AtBarrier(t Time, name string, fn func())
	EveryBarrier(d Time, name string, fn func())
}

// coordLayout is one way of running the rig: a coordinator, or (for
// the model property) every node on one Engine, where coord is nil and
// a post is At(now+delay).
type coordLayout struct {
	clock     func(node int) *Engine
	post      func(from, to int, delay Time, fn func())
	coord     coordinator
	onBarrier func(fn func(now Time) bool)
	run       func(horizon Time) error
}

func liveLayout(s *ShardedEngine) coordLayout {
	return coordLayout{clock: s.Shard, post: s.Post, coord: s, run: s.Run,
		onBarrier: s.OnBarrier}
}

func refLayout(s *refSharded) coordLayout {
	return coordLayout{clock: s.Shard, post: s.Post, coord: s, run: s.Run,
		onBarrier: s.OnBarrier}
}

func oneEngineLayout(e *Engine) coordLayout {
	return coordLayout{
		clock: func(int) *Engine { return e },
		post:  func(_, _ int, delay Time, fn func()) { e.At(e.Now()+delay, fn) },
		run:   e.Run,
	}
}

// coordQuantum is the rig's time grain. Every time the rig uses is a
// multiple of it, so same-instant ties (at a destination, between a
// barrier task and a window end, between mail and a tick) are common.
const coordQuantum = 10 * Nanosecond

const (
	coordHeader = 4 // shards, lookahead, horizon, split
	coordOpSize = 6
	coordMaxOps = 24
)

// coordSpec is a decoded FuzzShardedCoordinator input.
//
// Header: shards = 2 + b0%7; lookahead L = (2 + b1%5) quanta; horizon
// = (8 + b2%56) lookaheads plus b2>>6 quanta, so it is sometimes off
// the window grid; b3%4 splits the run into two Run calls at that many
// quarters of the horizon.
//
// Each 6-byte op is a kind byte (mod 6) and five operands:
//
//	0 tick     shard, period, first, flags (bit 0 posts to shard+1+b5,
//	           bits 2-3 add quanta to the lookahead delay, bit 1 sends
//	           a note to hook b5>>4)
//	1 chain    from, start, to, delay (bit 7 makes it several
//	           lookaheads long, else lookahead + b4%4 quanta), ttl
//	           and hop step
//	2 AtBarrier  at (quanta + lookaheads), effects, shard, operand
//	3 EveryBarrier period, -, effects, shard, operand
//	4 OnBarrier hook: drains its notes, each of which may schedule on a
//	           shard, post, or note the next hook
//	5 panic    where (shard event, barrier task, hook), at, shard; only
//	           the first panic op counts
//
// A barrier task's effects: bit 0 posts from barrier context, bit 1
// schedules on a shard directly, bit 2 cancels a tick, bit 3 notes a
// hook, bit 4 starts a chain.
type coordSpec struct {
	shards    int
	lookahead Time
	horizon   Time
	split     Time
	ops       [][coordOpSize]byte
}

func decodeCoordSpec(data []byte) (coordSpec, bool) {
	if len(data) < coordHeader {
		return coordSpec{}, false
	}
	sp := coordSpec{
		shards:    2 + int(data[0]%7),
		lookahead: coordQuantum * Time(2+data[1]%5),
	}
	sp.horizon = sp.lookahead*Time(8+data[2]%56) + coordQuantum*Time(data[2]>>6)
	if q := Time(data[3] % 4); q > 0 {
		sp.split = sp.horizon * q / 4
	}
	for rest := data[coordHeader:]; len(rest) >= coordOpSize && len(sp.ops) < coordMaxOps; rest = rest[coordOpSize:] {
		sp.ops = append(sp.ops, [coordOpSize]byte(rest[:coordOpSize]))
	}
	return sp, true
}

// modelOnly reports whether the spec uses only ticks and chains, the
// part of the rig that also runs on one plain Engine.
func (sp coordSpec) modelOnly() bool {
	for _, op := range sp.ops {
		if k := op[0] % 6; k != 0 && k != 1 {
			return false
		}
	}
	return true
}

// coordEntry is one logged call. Entries are comparable, so logs
// compare with slices.Equal.
type coordEntry struct {
	at   Time
	kind byte // 't' tick, 'h' hop, 'p' barrier post, 'a' barrier At, 'k' hook note, 'b' barrier task
	id   int  // op index (hook index for 'k')
	n    int  // tick count, hop ttl or note payload
}

type coordLogs struct {
	nodes   [][]coordEntry // per-node fire logs
	barrier []coordEntry   // hook and task calls, in call order
}

// runCoordRig builds sp's rig on layout l and runs it to the horizon
// (in two Run calls when sp.split is set). It returns the logs and the
// first error.
func runCoordRig(l coordLayout, sp coordSpec) (coordLogs, error) {
	n, L := sp.shards, sp.lookahead
	logs := coordLogs{nodes: make([][]coordEntry, n)}
	note := func(node int, kind byte, id, k int) {
		logs.nodes[node] = append(logs.nodes[node], coordEntry{l.clock(node).Now(), kind, id, k})
	}
	now := func() Time { return l.coord.Now() }

	type tick struct {
		shard int
		ref   EventRef
	}
	var ticks []*tick
	type hook struct{ notes []int }
	var hooks []*hook
	sendNote := func(h, payload int) {
		if len(hooks) > 0 {
			hk := hooks[h%len(hooks)]
			hk.notes = append(hk.notes, payload)
		}
	}
	hookPanicAt := Time(-1)
	panicked := false

	var hop func(id, from, to int, delay Time, ttl, step int)
	hop = func(id, from, to int, delay Time, ttl, step int) {
		l.post(from, to, delay, func() {
			note(to, 'h', id, ttl)
			if ttl > 0 {
				hop(id, to, (to+step)%n, delay, ttl-1, step)
			}
		})
	}
	// barrierEffects runs a barrier task's effects with every shard
	// parked at the coordinator's clock.
	barrierEffects := func(id int, effects, shard, x byte) {
		logs.barrier = append(logs.barrier, coordEntry{now(), 'b', id, int(effects)})
		d := int(shard) % n
		if effects&1 != 0 {
			to := (d + 1 + int(x)%n) % n
			l.post(d, to, L+coordQuantum*Time(x%4), func() { note(to, 'p', id, 0) })
		}
		if effects&2 != 0 {
			l.clock(d).At(now()+coordQuantum*Time(x%8), func() { note(d, 'a', id, 0) })
		}
		if effects&4 != 0 && len(ticks) > 0 {
			t := ticks[int(x)%len(ticks)]
			l.clock(t.shard).Cancel(t.ref)
		}
		if effects&8 != 0 {
			sendNote(int(x>>3), int(x))
		}
		if effects&16 != 0 {
			hop(id, d, (d+int(x))%n, L*Time(1+x%3), 3, 1)
		}
	}

	for id, op := range sp.ops {
		switch op[0] % 6 {
		case 0:
			s, period, first, flags, x := int(op[1])%n, coordQuantum*Time(1+op[2]%24), coordQuantum*Time(op[3]), op[4], op[5]
			t := &tick{shard: s}
			ticks = append(ticks, t)
			count := 0
			fire := func() {
				count++
				note(s, 't', id, count)
				if flags&1 != 0 {
					to, k := (s+1+int(x)%n)%n, count
					l.post(s, to, L+coordQuantum*Time(flags>>2%4), func() { note(to, 'p', id, k) })
				}
				if flags&2 != 0 {
					sendNote(int(x>>4), int(x)+count)
				}
			}
			eng := l.clock(s)
			t.ref = eng.At(first, func() {
				t.ref = eng.Every(period, fire)
				fire()
			})
		case 1:
			from, start, to, dl, x := int(op[1])%n, coordQuantum*Time(op[2]), int(op[3])%n, op[4], op[5]
			delay := L + coordQuantum*Time(dl%4)
			if dl&0x80 != 0 {
				delay = L*Time(2+dl%14) + coordQuantum*Time(dl>>4&3)
			}
			ttl, step := int(x%20), 1+int(x>>5)
			l.clock(from).At(start, func() { hop(id, from, to, delay, ttl, step) })
		case 2:
			if l.coord == nil {
				continue
			}
			at := coordQuantum*Time(op[1]) + L*Time(op[2]%32)
			l.coord.AtBarrier(at, fmt.Sprintf("at%d", id), func() { barrierEffects(id, op[3], op[4], op[5]) })
		case 3:
			if l.coord == nil {
				continue
			}
			l.coord.EveryBarrier(coordQuantum*Time(1+op[1]%64), fmt.Sprintf("every%d", id), func() { barrierEffects(id, op[3], op[4], op[5]) })
		case 4:
			if l.coord == nil {
				continue
			}
			hi, hk := len(hooks), &hook{}
			hooks = append(hooks, hk)
			l.onBarrier(func(at Time) bool {
				if len(hk.notes) == 0 {
					return false
				}
				notes := hk.notes
				hk.notes = nil
				for _, p := range notes {
					logs.barrier = append(logs.barrier, coordEntry{at, 'k', hi, p})
					if hookPanicAt >= 0 && at >= hookPanicAt {
						panic(fmt.Sprintf("hook %d at %v", hi, at))
					}
					d := p % n
					if p&1 != 0 {
						l.clock(d).At(at+coordQuantum*Time(p>>4%4), func() { note(d, 'a', -1-hi, p) })
					}
					if p&2 != 0 {
						to := (d + 1) % n
						l.post(d, to, L, func() { note(to, 'p', -1-hi, p) })
					}
					if p&4 != 0 {
						sendNote(hi+1, p>>3)
					}
				}
				return true
			})
		case 5:
			if l.coord == nil || panicked {
				continue
			}
			panicked = true
			at := coordQuantum*Time(op[2]) + L*Time(op[3]%16)
			switch op[1] % 3 {
			case 0:
				l.clock(int(op[4])%n).At(at, func() { panic(fmt.Sprintf("shard op %d", id)) })
			case 1:
				l.coord.AtBarrier(at, fmt.Sprintf("panic%d", id), func() { panic(fmt.Sprintf("task op %d", id)) })
			default:
				hookPanicAt = at
			}
		}
	}

	if sp.split > 0 {
		if err := l.run(sp.split); err != nil {
			return logs, err
		}
	}
	return logs, l.run(sp.horizon)
}

// sameRunError compares two Run results: equal *ShardPanic fields
// (the stack aside), or equal error text.
func sameRunError(a, b error) bool {
	var pa, pb *ShardPanic
	if errors.As(a, &pa) != errors.As(b, &pb) {
		return false
	}
	if pa != nil {
		return pa.Shard == pb.Shard && pa.Task == pb.Task && pa.Hook == pb.Hook && pa.At == pb.At &&
			fmt.Sprint(pa.Value) == fmt.Sprint(pb.Value)
	}
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// byInstant returns log with the entries at each instant sorted, the
// order the one-engine layout may legitimately change at a tie.
func byInstant(log []coordEntry) []coordEntry {
	out := slices.Clone(log)
	slices.SortStableFunc(out, func(a, b coordEntry) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		if a.kind != b.kind {
			return int(a.kind) - int(b.kind)
		}
		if a.id != b.id {
			return a.id - b.id
		}
		return a.n - b.n
	})
	return out
}

// beforeHorizon drops the entries at the horizon instant. An event due
// exactly at a barrier (one scheduled at time 0, or at Now() from
// barrier context) runs in the window after it, so mail it posts with
// exactly the lookahead reaches its destination one window late, still
// at its own time; one that lands on the horizon then does not fire.
func beforeHorizon(log []coordEntry, horizon Time) []coordEntry {
	i := len(log)
	for i > 0 && log[i-1].at >= horizon {
		i--
	}
	return log[:i]
}

func hasTie(log []coordEntry) bool {
	for i := 1; i < len(log); i++ {
		if log[i].at == log[i-1].at {
			return true
		}
	}
	return false
}

// FuzzShardedCoordinator is the window coordinator's differential
// oracle. It decodes the input into a rig (coordSpec): 2-8 shards,
// periodic ticks, hop chains whose delays are at or above the
// lookahead (exactly the lookahead included, and long enough to leave
// whole windows idle), AtBarrier and EveryBarrier tasks that post,
// schedule and cancel from barrier context, OnBarrier hooks that
// record the notes they drain, and an optional panicking callback. It
// runs the rig on ShardedEngine and on refSharded, the
// step-every-window coordinator, and asserts the same per-shard fire
// logs, hook and task logs, ShardedStats, fired count, clocks and
// error (*ShardPanic fields included).
//
// A hook only records when it drains a note, and reports whether it
// did: a barrier after a window with no due event and no barrier work
// before it is one at which every hook has nothing to do.
//
// It also checks the model property that generalises
// TestShardedMatchesOneEngine: a rig of ticks and chains alone, run
// with every node on one plain Engine and each post an At(now+delay),
// fires the same events at the same instants on every node before the
// horizon (see beforeHorizon), and in the same order wherever no two
// events tie at one node.
func FuzzShardedCoordinator(f *testing.F) {
	op := func(b ...byte) []byte { return b }
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	// Dense: two ticking shards and a chain.
	f.Add(cat(op(3, 1, 20, 0), op(0, 0, 3, 0, 1, 1), op(0, 1, 4, 2, 0, 0), op(1, 0, 5, 2, 0, 10)))
	// Sparse: one long-delay chain, so most windows are idle.
	f.Add(cat(op(4, 2, 40, 0), op(1, 0, 1, 3, 0x85, 6)))
	// Exactly-lookahead hops and same-instant ties at one destination.
	f.Add(cat(op(2, 0, 30, 2), op(1, 0, 0, 1, 0, 12), op(1, 2, 0, 1, 0, 12), op(0, 1, 1, 0, 0, 0)))
	// Barrier tasks that post, schedule, cancel and note, with hooks.
	f.Add(cat(op(5, 3, 50, 1), op(0, 1, 7, 3, 3, 0x21), op(4), op(4), op(2, 13, 3, 0x1f, 2, 9),
		op(3, 11, 0, 0x0b, 1, 0x4d), op(1, 3, 9, 0, 0x83, 0x44)))
	// Sparse with an EveryBarrier task off the window grid and a split run.
	f.Add(cat(op(1, 4, 20, 2), op(1, 1, 2, 0, 0x8c, 3), op(3, 17, 0, 0x01, 0, 0)))
	// Panics: in a shard, in a barrier task, in a hook.
	f.Add(cat(op(3, 0, 20, 0), op(0, 1, 2, 0, 3, 0x10), op(4), op(5, 0, 30, 2, 1, 0)))
	f.Add(cat(op(3, 0, 20, 0), op(0, 1, 2, 0, 0, 0), op(5, 1, 0, 7, 0, 0)))
	f.Add(cat(op(3, 0, 20, 0), op(0, 1, 2, 0, 2, 0x10), op(4), op(5, 2, 0, 5, 0, 0)))
	// Nothing queued: a deadlock.
	f.Add(op(1, 1, 1, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, ok := decodeCoordSpec(data)
		if !ok {
			return
		}
		live := NewSharded(sp.shards, sp.lookahead)
		ref := newRefSharded(sp.shards, sp.lookahead)
		gotLogs, gotErr := runCoordRig(liveLayout(live), sp)
		wantLogs, wantErr := runCoordRig(refLayout(ref), sp)
		if !sameRunError(gotErr, wantErr) {
			t.Fatalf("Run error = %v, reference %v", gotErr, wantErr)
		}
		for i := range wantLogs.nodes {
			if !slices.Equal(gotLogs.nodes[i], wantLogs.nodes[i]) {
				t.Fatalf("shard %d fire log differs\n got %v\nwant %v", i, gotLogs.nodes[i], wantLogs.nodes[i])
			}
		}
		if !slices.Equal(gotLogs.barrier, wantLogs.barrier) {
			t.Fatalf("hook and task log differs\n got %v\nwant %v", gotLogs.barrier, wantLogs.barrier)
		}
		if g, w := live.Stats(), ref.Stats(); g != w {
			t.Fatalf("stats %+v, reference %+v", g, w)
		}
		if g, w := live.Fired(), ref.Fired(); g != w {
			t.Fatalf("fired %d, reference %d", g, w)
		}
		var p *ShardPanic
		if !errors.As(wantErr, &p) {
			if live.Now() != ref.Now() {
				t.Fatalf("coordinator at %v, reference %v", live.Now(), ref.Now())
			}
			for i := 0; i < sp.shards; i++ {
				if g, w := live.Shard(i).Now(), ref.Shard(i).Now(); g != w {
					t.Fatalf("shard %d at %v, reference %v", i, g, w)
				}
			}
		}

		if !sp.modelOnly() {
			return
		}
		e := NewEngine()
		oneLogs, _ := runCoordRig(oneEngineLayout(e), sp)
		for i := range wantLogs.nodes {
			got, want := beforeHorizon(wantLogs.nodes[i], sp.horizon), beforeHorizon(oneLogs.nodes[i], sp.horizon)
			if !hasTie(want) && !slices.Equal(got, want) {
				t.Fatalf("node %d: sharded log differs from one engine's\n got %v\nwant %v", i, got, want)
			}
			if !slices.Equal(byInstant(got), byInstant(want)) {
				t.Fatalf("node %d: sharded events differ from one engine's\n got %v\nwant %v", i, got, want)
			}
		}
	})
}
