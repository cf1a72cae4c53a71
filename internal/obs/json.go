package obs

import (
	"fmt"
	"math"
	"strconv"
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
func AppendJSONString(dst []byte, s string) []byte {
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
		c, size := utf8.DecodeRuneInString(s[i:])
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

// Arg is one key/value argument of an exported event.
type Arg struct {
	Key, Val string
}

// NextArg returns the index of the argument after args[prev] (prev < 0:
// the first) in the order encoding/json writes the equivalent
// map[string]string: ascending key, and for a repeated key only its
// last entry, which is the one a map keeps. It returns -1 past the end.
// The walk is quadratic and allocation-free; argument lists are short.
func NextArg(args []Arg, prev int) int {
	next := -1
	for i := range args {
		k := args[i].Key
		if (prev < 0 || k > args[prev].Key) && (next < 0 || k <= args[next].Key) {
			next = i
		}
	}
	return next
}
