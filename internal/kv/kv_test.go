package kv

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// spec holds one destination of every kind.
type spec struct {
	F float64
	D sim.Time
	N int
	B bool
	W string
}

func (s *spec) table() Table {
	return Table{Bind("f", &s.F), Bind("d", &s.D), Bind("n", &s.N), Bind("b", &s.B), Bind("w", &s.W)}
}

func TestParseEveryKind(t *testing.T) {
	var s spec
	if err := s.table().Parse(" F = 0.25 ,d=1500us,N=-3, b=ON ,w=First-Fit"); err != nil {
		t.Fatal(err)
	}
	want := spec{F: 0.25, D: 1500 * sim.Microsecond, N: -3, B: true, W: "first-fit"}
	if s != want {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
	if got := s.table().String(); got != "f=0.25,d=1.5ms,n=-3,b=on,w=first-fit" {
		t.Fatalf("String() = %q", got)
	}
}

func TestParseKeepsOmittedFields(t *testing.T) {
	s := spec{F: 1, N: 7}
	if err := s.table().Parse("n=2"); err != nil {
		t.Fatal(err)
	}
	if s.F != 1 || s.N != 2 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestNonZeroOmitsZeroFields(t *testing.T) {
	var s spec
	if got := s.table().NonZero(); got != "" {
		t.Fatalf("zero spec renders %q", got)
	}
	s.D, s.W = 2*sim.Second, "x"
	if got := s.table().NonZero(); got != "d=2s,w=x" {
		t.Fatalf("NonZero() = %q", got)
	}
	if got := s.table().String(); got != "f=0,d=2s,n=0,b=off,w=x" {
		t.Fatalf("String() = %q", got)
	}
}

func TestOnOffSpellings(t *testing.T) {
	for val, want := range map[string]bool{
		"on": true, "true": true, "yes": true, "1": true,
		"OFF": false, "false": false, "no": false, "0": false,
	} {
		s := spec{B: !want}
		if err := s.table().Parse("b=" + val); err != nil || s.B != want {
			t.Errorf("b=%s: got %v, %v", val, s.B, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "empty field"},
		{"f=1,", "empty field"},
		{"f=1,,n=2", "empty field"},
		{"f", `field "f" is not key=value`},
		{"f=1,F=2", `duplicate field "f"`},
		{"bogus=1", `unknown field "bogus"`},
		{"f=x", "f: strconv.ParseFloat"},
		{"f=NaN", "f: NaN is not a finite number"},
		{"f=+Inf", "f: +Inf is not a finite number"},
		{"f=1e400", "value out of range"},
		{"d=5", "d: time: missing unit"},
		{"n=1.5", "n: strconv.Atoi"},
		{"b=maybe", `b: want on/off, got "maybe"`},
	}
	for _, tc := range cases {
		var s spec
		err := s.table().Parse(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want error containing %q", tc.in, err, tc.want)
		}
	}
}

func TestBadValueWrapsCause(t *testing.T) {
	var s spec
	err := s.table().Parse("n=x")
	if !errors.Is(err, strconv.ErrSyntax) {
		t.Fatalf("Parse(n=x) = %v, want it to wrap strconv.ErrSyntax", err)
	}
}

// FuzzTable: whatever a table over every kind accepts renders (in
// both forms) to a spec that parses back to the same values.
func FuzzTable(f *testing.F) {
	for _, seed := range []string{
		"f=0.25,d=1500us,n=-3,b=on,w=first-fit",
		" F = 1e-300 , D = 9223372036854775807ns ",
		"n=0,b=off,w=",
		"f=-0",
		"f=NaN",
		"f=+Inf",
		"d=-1h",
		"f=1,f=2",
		"=,=,=",
		"w=A B",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		var s spec
		if err := s.table().Parse(in); err != nil {
			return
		}
		for _, out := range []string{s.table().String(), s.table().NonZero()} {
			if out == "" {
				continue
			}
			var back spec
			if err := back.table().Parse(out); err != nil {
				t.Fatalf("Parse(%q) -> %q does not re-parse: %v", in, out, err)
			}
			if back != s {
				t.Fatalf("round trip of %q via %q: %+v != %+v", in, out, back, s)
			}
		}
	})
}
