package sim

import (
	"encoding/binary"
	"testing"
)

// Fuzz ops. Each op is 9 bytes: a control byte, then an int64 operand.
// The control byte's low 3 bits pick the kind; its high 5 bits are a
// handle offset for opCancelOther.
const (
	opAt          = iota // one-shot at the operand (past times clamp to now)
	opAt2                // like opAt: three of the eight kinds are one-shots
	opEvery              // periodic, period = operand mod 1024 (0 is a violation)
	opCancel             // cancel handle operand mod #handles
	opStep               // dispatch one event
	opCancelOther        // one-shot whose callback cancels a handle counted back from the newest
	opEverySelf          // periodic whose callback cancels itself
	opAt3                // like opAt

	opSize = 9
)

// fuzzOp encodes one op for the seed corpus.
func fuzzOp(ctrl byte, v int64) []byte {
	b := make([]byte, opSize)
	b[0] = ctrl
	binary.LittleEndian.PutUint64(b[1:], uint64(v))
	return b
}

// fuzzHandle is the model's view of one scheduled event.
type fuzzHandle struct {
	ref      EventRef
	at       Time   // next due time
	seq      uint64 // the engine's tie-break key for at
	period   Time
	live     bool // queued: not fired (one-shot) and not cancelled
	canceled bool
	fired    int
}

// FuzzEventHeapOrdering drives the engine with scheduled one-shots,
// periodic events, cancels (of live, fired and already cancelled
// handles, from the top level and from inside callbacks) and single
// steps, with adversarial timestamps — negative, zero, duplicate,
// maximal. Against a model that mirrors the engine's (at, seq) key it
// asserts the dispatch contract: events fire in (at, seq) order, a
// cancelled event never fires, every live one-shot fires exactly once,
// each handle's Cancelled() matches the model, and Pending() equals the
// number of live handles after every op. Past timestamps are absorbed
// by the OnViolation hook (clamped to now) rather than panicking.
//
// Beside the seeds below, testdata/fuzz/FuzzEventHeapOrdering holds a
// periodic event cancelling itself from its callback (seed-self-cancel),
// a stale handle to a recycled object (seed-recycled), and callbacks
// cancelling a periodic event and a same-instant one-shot
// (seed-callback-cancel).
func FuzzEventHeapOrdering(f *testing.F) {
	at := func(ts ...int64) []byte {
		var b []byte
		for _, t := range ts {
			b = append(b, fuzzOp(opAt, t)...)
		}
		return b
	}
	f.Add(at(5, 1, 3, 2, 4))
	f.Add(at(7, 7, 7, 7))
	f.Add(at(0, -1, -100, 50))
	f.Add(at(1<<62, 1, 1<<62, 2))
	f.Add(at(-9223372036854775808, 9223372036854775807))
	f.Add(at())
	f.Add([]byte{1, 2, 3}) // trailing partial op

	le := binary.LittleEndian
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / opSize
		if n > 256 {
			n = 256
		}
		eng := NewEngine()
		eng.OnViolation = func(string, string) {}
		var hs []*fuzzHandle
		var seq uint64 // mirrors Engine.seq
		lastAt, lastSeq := Time(-1), uint64(0)

		cancel := func(h *fuzzHandle) {
			if h.live {
				h.live, h.canceled = false, true
			}
			eng.Cancel(h.ref)
		}
		// schedule records a new handle; fn runs after the model update
		// for the firing, with the handle as argument.
		schedule := func(when Time, period Time, fn func(*fuzzHandle)) {
			h := &fuzzHandle{seq: seq, period: period}
			if when < eng.Now() {
				when = eng.Now()
			}
			h.at = when
			fire := func() {
				if !h.live {
					t.Fatalf("handle fired while not live (canceled=%v fired=%d)", h.canceled, h.fired)
				}
				now := eng.Now()
				if now != h.at {
					t.Fatalf("fired at %v, want %v", now, h.at)
				}
				if now < lastAt || now == lastAt && h.seq <= lastSeq {
					t.Fatalf("(at, seq) order broken: (%v, %d) after (%v, %d)", now, h.seq, lastAt, lastSeq)
				}
				lastAt, lastSeq = now, h.seq
				h.fired++
				if h.period > 0 {
					// Step re-armed it with the next seq before calling us.
					h.at += h.period
					h.seq = seq
					seq++
				} else {
					h.live = false
				}
				if fn != nil {
					fn(h)
				}
			}
			if period > 0 {
				h.ref = eng.Every(period, fire)
			} else {
				h.ref = eng.At(when, fire)
			}
			seq++
			h.live = true
			hs = append(hs, h)
		}
		check := func(step int) {
			live := 0
			for i, h := range hs {
				if h.live {
					live++
				}
				if h.ref.Cancelled() == h.live {
					t.Fatalf("op %d: handle %d Cancelled()=%v, model live=%v", step, i, h.ref.Cancelled(), h.live)
				}
			}
			if eng.Pending() != live {
				t.Fatalf("op %d: Pending()=%d, model has %d live handles", step, eng.Pending(), live)
			}
		}

		for i := 0; i < n; i++ {
			op := data[opSize*i:]
			ctrl, v := op[0], int64(le.Uint64(op[1:]))
			switch ctrl & 7 {
			case opAt, opAt2, opAt3:
				schedule(Time(v), 0, nil)
			case opEvery, opEverySelf:
				p := Time(uint64(v) % 1024)
				if p == 0 {
					if r := eng.Every(0, func() { t.Fatal("zero-period event fired") }); r != (EventRef{}) {
						t.Fatalf("non-positive period returned a live handle")
					}
					continue
				}
				if eng.Now() > 1<<62 {
					continue // keep re-arms clear of int64 overflow
				}
				var fn func(*fuzzHandle)
				if ctrl&7 == opEverySelf {
					fn = cancel
				}
				schedule(eng.Now()+p, p, fn)
			case opCancel:
				if len(hs) > 0 {
					cancel(hs[uint64(v)%uint64(len(hs))])
				}
			case opStep:
				eng.Step()
			case opCancelOther:
				back := int(ctrl >> 3)
				schedule(Time(v), 0, func(*fuzzHandle) {
					cancel(hs[len(hs)-1-back%len(hs)])
				})
			}
			check(i)
		}

		// Stop the periodic events, then drain the one-shots.
		for _, h := range hs {
			if h.period > 0 {
				cancel(h)
			}
		}
		for eng.Step() {
		}
		check(n)
		for i, h := range hs {
			switch {
			case h.period == 0 && !h.canceled && h.fired != 1:
				t.Fatalf("one-shot %d fired %d times", i, h.fired)
			case h.period == 0 && h.canceled && h.fired != 0:
				t.Fatalf("cancelled one-shot %d fired %d times", i, h.fired)
			}
		}
	})
}
