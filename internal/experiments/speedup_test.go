package experiments

import (
	"math"
	"testing"
	"testing/quick"
)

func TestImprovementSigns(t *testing.T) {
	if got := Improvement(10, 5); got != 50 {
		t.Fatalf("Improvement(10,5) = %v", got)
	}
	if got := Improvement(10, 20); got != -100 {
		t.Fatalf("Improvement(10,20) = %v", got)
	}
	if got := Improvement(0, 5); got != 0 {
		t.Fatal("zero baseline should yield 0")
	}
	if got := ThroughputImprovement(100, 112); math.Abs(got-12) > 1e-9 {
		t.Fatalf("ThroughputImprovement = %v", got)
	}
}

func TestSpeedupAndWeighted(t *testing.T) {
	if got := Speedup(10, 5); got != 2 {
		t.Fatalf("Speedup = %v", got)
	}
	if got := WeightedSpeedup(1.4, 1.0); math.Abs(got-1.2) > 1e-9 {
		t.Fatalf("WeightedSpeedup = %v", got)
	}
}

func TestQuickImprovementSpeedupConsistency(t *testing.T) {
	// improvement > 0 <=> speedup > 1.
	f := func(a, b uint16) bool {
		base := float64(a) + 1
		meas := float64(b) + 1
		imp := Improvement(base, meas)
		sp := Speedup(base, meas)
		return (imp > 0) == (sp > 1) || imp == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
