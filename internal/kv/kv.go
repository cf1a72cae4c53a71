// Package kv holds the one grammar behind the simulator's text specs:
// fault plans, attacker knobs, watch rules and every load-spec and
// host-spec section are comma-separated key=value fields read through
// a Table; the multi-section specs split into sections through
// Sections.
//
// A Table binds each key to a typed destination: a finite float64, a
// sim.Time written as a Go duration ("50us", "2ms"), an int, a bool
// written on/off, or a string stored as a lower-cased word. The parser
// and the renderers walk the same table, so rendering and parsing back
// yields the same values by construction.
//
// Whitespace around fields, keys and values is trimmed and keys are
// case-insensitive. An empty field, a field without '=', a duplicate
// key and an unknown key are errors; a bad value is an error naming
// the key that wraps the strconv or time error.
package kv

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Kind is the set of destination types a field can bind.
type Kind interface {
	float64 | sim.Time | int | bool | string
}

// Field binds one lower-case key to a typed destination.
type Field struct {
	Key string
	dst any
}

// Bind binds key to dst.
func Bind[T Kind](key string, dst *T) Field { return Field{Key: key, dst: dst} }

// Dst returns the bound destination: a *float64, *sim.Time, *int,
// *bool or *string.
func (f Field) Dst() any { return f.dst }

// Table is an ordered field list; the order is the render order.
type Table []Field

// Parse reads a comma-separated key=value list into the table's
// destinations. Fields the spec omits keep their values.
func (t Table) Parse(spec string) error {
	seen := make([]bool, len(t))
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			return errors.New("empty field")
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("field %q is not key=value", field)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		i := t.index(key)
		if i < 0 {
			return fmt.Errorf("unknown field %q", key)
		}
		if seen[i] {
			return fmt.Errorf("duplicate field %q", key)
		}
		seen[i] = true
		if err := t[i].set(strings.TrimSpace(val)); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
	}
	return nil
}

func (t Table) index(key string) int {
	for i, f := range t {
		if f.Key == key {
			return i
		}
	}
	return -1
}

func (f Field) set(val string) error {
	switch p := f.dst.(type) {
	case *float64:
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is not a finite number", val)
		}
		*p = v
	case *sim.Time:
		d, err := time.ParseDuration(val)
		if err != nil {
			return err
		}
		*p = sim.Duration(d)
	case *int:
		n, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		*p = n
	case *bool:
		switch strings.ToLower(val) {
		case "on", "true", "yes", "1":
			*p = true
		case "off", "false", "no", "0":
			*p = false
		default:
			return fmt.Errorf("want on/off, got %q", val)
		}
	case *string:
		*p = strings.ToLower(val)
	}
	return nil
}

// String renders every field as key=value, comma-separated, in table
// order.
func (t Table) String() string { return t.render(false) }

// NonZero renders like String but omits fields holding their type's
// zero value; it is "" when every field is zero.
func (t Table) NonZero() string { return t.render(true) }

func (t Table) render(omitZero bool) string {
	var b []byte
	for _, f := range t {
		if omitZero && f.zero() {
			continue
		}
		if len(b) > 0 {
			b = append(b, ',')
		}
		b = append(b, f.Key...)
		b = append(b, '=')
		b = f.appendValue(b)
	}
	return string(b)
}

func (f Field) zero() bool {
	switch p := f.dst.(type) {
	case *float64:
		return *p == 0
	case *sim.Time:
		return *p == 0
	case *int:
		return *p == 0
	case *bool:
		return !*p
	default:
		return *f.dst.(*string) == ""
	}
}

func (f Field) appendValue(b []byte) []byte {
	switch p := f.dst.(type) {
	case *float64:
		return strconv.AppendFloat(b, *p, 'g', -1, 64)
	case *sim.Time:
		return append(b, p.Std().String()...)
	case *int:
		return strconv.AppendInt(b, int64(*p), 10)
	case *bool:
		if *p {
			return append(b, "on"...)
		}
		return append(b, "off"...)
	default:
		return append(b, *f.dst.(*string)...)
	}
}

// Sections walks a multi-section spec and calls fn with each section's
// name and body. Sections are separated by ';' or newlines, each
// "name:body"; '#' starts a comment that runs to the end of its line.
// Blank sections are skipped, names are trimmed and lower-cased, and
// bodies are passed on as written. A name may appear once unless it
// is listed in repeatable. fn's first error ends the walk and is
// returned unwrapped.
func Sections(text string, repeatable []string, fn func(name, body string) error) error {
	var seenBuf [16]string
	seen := seenBuf[:0]
	for more := true; more; {
		var line string
		line, text, more = strings.Cut(text, "\n")
		line, _, _ = strings.Cut(line, "#")
		for semi := true; semi; {
			var sec string
			sec, line, semi = strings.Cut(line, ";")
			if sec = strings.TrimSpace(sec); sec == "" {
				continue
			}
			name, body, ok := strings.Cut(sec, ":")
			if !ok {
				return fmt.Errorf("section %q is not name:key=value,...", sec)
			}
			name = strings.ToLower(strings.TrimSpace(name))
			if !slices.Contains(repeatable, name) {
				if slices.Contains(seen, name) {
					return fmt.Errorf("duplicate section %q", name)
				}
				seen = append(seen, name)
			}
			if err := fn(name, body); err != nil {
				return err
			}
		}
	}
	return nil
}
