package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{1, 10}, {20, 10}, {21, 20}, {50, 30}, {80, 40}, {81, 50}, {99, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5 (mean of the middle two, as the driver takes it)", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of 1, 5, 9 = %v, want 5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{4, 50},        // too few for any tail: only the median
		{21, 50},       // 10 beyond the median, 5 beyond p75
		{44, 75},       // 11 beyond p75, 4 beyond p90
		{110, 90},      // 11 beyond p90, 5 beyond p95
		{300, 95},      // 15 beyond p95, 3 beyond p99
		{2_000, 99},    // 20 beyond p99, 2 beyond p99.9
		{20_000, 99.9}, // 20 beyond p99.9
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = p%v, want p%v", c.n, got, c.want)
		}
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4) — the rule the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5}, // extrapolates, exactly as Python does
		{[]float64{1, 2, 4, 8, 16}, 1.5, 12},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := driverSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want IQR 5.5 over median 5.5", got)
	}
}
