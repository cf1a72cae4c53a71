package obs

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestAppendUsecMatchesFloat holds the integer microsecond writer to
// the float path it replaces, AppendJSONFloat(float64(t)/1e3), at the
// digit and unit edges, around the 2^50 ns switch to the float path,
// and at the int64 extremes.
func TestAppendUsecMatchesFloat(t *testing.T) {
	cases := []sim.Time{
		0, 1, 9, 10, 99, 100, 999, 1000, 1001, 1010, 1100, 1999, 123456789,
		-1, -999, -1000, -1001, -123456789,
		6*sim.Second + 250*sim.Microsecond, 40123500, 999_999_999_999,
		1<<50 - 1, 1 << 50, 1<<50 + 1, -(1<<50 - 1), -(1 << 50), -(1<<50 + 1),
		1<<53 - 1, 1 << 53, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	for _, at := range cases {
		want, err := AppendJSONFloat(nil, float64(at)/1e3)
		if err != nil {
			t.Fatalf("AppendJSONFloat(%d ns): %v", int64(at), err)
		}
		if got := appendUsec(nil, at); string(got) != string(want) {
			t.Errorf("appendUsec(%d ns) = %s, float path %s", int64(at), got, want)
		}
	}
}

// TestAppendDurationMatchesString holds AppendDuration to
// time.Duration.String across every unit and sign.
func TestAppendDurationMatchesString(t *testing.T) {
	cases := []time.Duration{
		0, 1, 999, time.Microsecond, 1500, 999_999, time.Millisecond,
		2500 * time.Microsecond, time.Second - 1, time.Second,
		1500 * time.Millisecond, time.Minute, 61 * time.Second,
		time.Hour + time.Minute + time.Second + time.Millisecond,
		-1, -1500, -time.Hour, math.MaxInt64, math.MinInt64,
	}
	for v := time.Duration(1); v > 0 && v < math.MaxInt64/7; v = v*7 + 3 {
		cases = append(cases, v, -v)
	}
	for _, d := range cases {
		if got := AppendDuration(nil, d); string(got) != d.String() {
			t.Errorf("AppendDuration(%d) = %q, want %q", int64(d), got, d.String())
		}
	}
}
