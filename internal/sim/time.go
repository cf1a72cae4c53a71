// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event queue, cancellable timers, and seeded random
// number streams. All higher layers (hypervisor, guest OS, workloads)
// are driven by this kernel, so a given seed reproduces a run exactly.
package sim

import (
	"strconv"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Common durations expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a standard library duration to virtual time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Std converts a virtual time span back to a standard library duration.
func (t Time) Std() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds reports t as floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	var buf [24]byte
	return string(t.Append(buf[:0]))
}

// Append appends t's String form to b: three decimals in the largest
// unit that fits (s, ms, µs), or whole nanoseconds. The decimals are
// those of the float64 quotient (t.Seconds() and so on) rounded to
// three places, computed in integers.
func (t Time) Append(b []byte) []byte {
	switch {
	case t >= Second:
		return append(appendMilli(b, t, Millisecond, t.Seconds()), 's')
	case t >= Millisecond:
		return append(appendMilli(b, t, Microsecond, t.Milliseconds()), "ms"...)
	case t >= Microsecond:
		return append(appendMilli(b, t, Nanosecond, t.Microseconds()), "µs"...)
	default:
		return append(strconv.AppendInt(b, int64(t), 10), "ns"...)
	}
}

// appendMilli appends f, the positive quotient of t by a unit of 1000
// steps, with three decimals, as strconv.AppendFloat(b, f, 'f', 3, 64)
// does. Rounding t to a whole number of steps gives the same digits
// unless t lies exactly halfway between two steps, where the float's
// own rounding error decides, or t is too large for the quotient's
// error to stay below half a nanosecond's worth; those take the float
// path.
func appendMilli(b []byte, t, step Time, f float64) []byte {
	q, r := t/step, t%step
	if 2*r == step || t >= 1<<50 {
		return strconv.AppendFloat(b, f, 'f', 3, 64)
	}
	if 2*r > step {
		q++
	}
	b = strconv.AppendInt(b, int64(q/1000), 10)
	frac := q % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}
