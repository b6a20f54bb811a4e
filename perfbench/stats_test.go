package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {0.99, 4.96}, {1, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty sample = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v, want 7", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, the method the benchmark's
// spread bounds are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, 1, 2, 3},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v %v %v", c.xs, q1, q2, q3, ok, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
}

func TestMillis(t *testing.T) {
	got := millis([]time.Duration{1500 * time.Microsecond, 2 * time.Second})
	if !near(got[0], 1.5) || !near(got[1], 2000) {
		t.Errorf("millis = %v", got)
	}
}
