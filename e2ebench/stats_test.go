package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, math.Inf(1), 2}, 2},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.5, 50},
		{0.9, 90},
		{0.99, 99},
		{1, 100},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("p%g = %g, want %g", 100*tc.q, got, tc.want)
		}
	}
	if got := percentile([]float64{7, 9}, 0.9); got != 9 {
		t.Errorf("p90 of two samples = %g, want the larger", got)
	}
}

// A failed clip enters the latency sample as +Inf: once more than a tenth
// of the clips fail, the p90 misses every limit.
func TestPercentileCountsFailuresAsMissing(t *testing.T) {
	xs := []float64{1, 1, 1, 1, 1, 1, 1, 1, math.Inf(1), math.Inf(1)}
	if got := percentile(xs, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with 2/10 failed = %g, want +Inf", got)
	}
	xs[8] = 1
	if got := percentile(xs, 0.9); got != 1 {
		t.Errorf("p90 with 1/10 failed = %g, want 1", got)
	}
	if got := finite(stat{Value: math.Inf(1)}).Value; got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %g, want the largest float", got)
	}
}
