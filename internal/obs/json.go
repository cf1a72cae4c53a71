package obs

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// Hand-written JSON append encoders for the export paths (Chrome
// traces here, the decision bundle in decision). They reproduce
// encoding/json's output byte for byte; the differential fuzz tests
// keep encoding/json as their oracle.

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes a JSON string carries unescaped.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := byte(0x20); b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

// AppendJSONString appends s as a JSON string literal, escaped as
// encoding/json escapes it: `"` and `\` with a backslash; \b \f \n \r
// \t by name; other control bytes and the HTML-sensitive <, > and & as
// \u00XX; each invalid UTF-8 byte as \ufffd; U+2028 and U+2029 as
// \u2028 and \u2029.
func AppendJSONString[T Text](dst []byte, s T) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// A two-byte sequence (µ, say) is valid when its lead byte is
		// C2..DF and the next is a continuation byte, and it is never
		// U+2028/U+2029: it stays as it is.
		if b := s[i]; b >= 0xC2 && b < 0xE0 && i+1 < len(s) && s[i+1]&0xC0 == 0x80 {
			i += 2
			continue
		}
		// Decode from a copy so one body serves strings and bytes.
		var r [utf8.UTFMax]byte
		c, size := utf8.DecodeRune(r[:copy(r[:], s[i:])])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendJSONFloat appends f as encoding/json renders a float64: the
// shortest round-tripping decimal, in exponent form (with e-09
// shortened to e-9) when |f| < 1e-6 or |f| >= 1e21. NaN and ±Inf have
// no JSON form and return an error.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("obs: unsupported JSON value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// KeyVal is one key/value argument of an exported event.
type KeyVal[T Text] struct {
	Key string
	Val T
}

// Arg is an argument whose value is a string.
type Arg = KeyVal[string]

// NextArg returns the index of the argument after args[prev] (prev < 0:
// the first) in the order encoding/json writes the equivalent
// map[string]string: ascending key, and for a repeated key only its
// last entry, which is the one a map keeps. It returns -1 past the end.
// The walk is quadratic and allocation-free; argument lists are short.
func NextArg[T Text](args []KeyVal[T], prev int) int {
	next := -1
	for i := range args {
		k := args[i].Key
		if (prev < 0 || k > args[prev].Key) && (next < 0 || k <= args[next].Key) {
			next = i
		}
	}
	return next
}

// AppendDuration appends d as time.Duration.String renders it ("1.5s",
// "2m0.5s", "250µs", "0s") without building the string.
func AppendDuration(b []byte, d time.Duration) []byte {
	var buf [32]byte
	w := len(buf)
	u := uint64(d)
	if d < 0 {
		u = -u
	}
	if u < uint64(time.Second) {
		// Below a second: one unit, ns, µs or ms, with a fraction.
		var prec int
		w--
		buf[w] = 's'
		w--
		switch {
		case u == 0:
			return append(b, "0s"...)
		case u < uint64(time.Microsecond):
			buf[w] = 'n'
		case u < uint64(time.Millisecond):
			prec = 3
			w-- // U+00B5 'µ' is two bytes
			copy(buf[w:], "µ")
		default:
			prec = 6
			buf[w] = 'm'
		}
		w, u = fmtFrac(buf[:w], u, prec)
		w = fmtInt(buf[:w], u)
	} else {
		w--
		buf[w] = 's'
		w, u = fmtFrac(buf[:w], u, 9)
		w = fmtInt(buf[:w], u%60)
		if u /= 60; u > 0 {
			w--
			buf[w] = 'm'
			w = fmtInt(buf[:w], u%60)
			if u /= 60; u > 0 {
				w--
				buf[w] = 'h'
				w = fmtInt(buf[:w], u)
			}
		}
	}
	if d < 0 {
		w--
		buf[w] = '-'
	}
	return append(b, buf[w:]...)
}

// fmtFrac writes the fraction of v/10^prec right-aligned into buf,
// omitting trailing zeros and the point when the fraction is zero, and
// returns the start index and v/10^prec.
func fmtFrac(buf []byte, v uint64, prec int) (int, uint64) {
	w := len(buf)
	print := false
	for i := 0; i < prec; i++ {
		digit := v % 10
		print = print || digit != 0
		if print {
			w--
			buf[w] = byte(digit) + '0'
		}
		v /= 10
	}
	if print {
		w--
		buf[w] = '.'
	}
	return w, v
}

// fmtInt writes v right-aligned into buf and returns the start index.
func fmtInt(buf []byte, v uint64) int {
	w := len(buf)
	for {
		w--
		buf[w] = byte(v%10) + '0'
		if v /= 10; v == 0 {
			return w
		}
	}
}
