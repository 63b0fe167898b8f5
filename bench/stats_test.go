package main

import (
	"math"
	"testing"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {95, 10}, {99, 10}, {100, 10}, {10, 1}, {1, 1}, {51, 6},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Never interpolated: the answer is always one of the samples.
	ys := []float64{0.3, 17, 17.5, 400}
	for p := 1.0; p <= 100; p++ {
		got := percentile(ys, p)
		found := false
		for _, y := range ys {
			found = found || y == got
		}
		if !found {
			t.Fatalf("percentile(%v) = %v is not a sample", p, got)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 50},      // nine beyond the median: nothing qualifies, the floor is 50
		{20, 50},      // ten beyond p50
		{100, 90},     // ten beyond p90, five beyond p95
		{200, 95},     // ten beyond p95, two beyond p99
		{300, 95},     // plan-miss: 15 beyond p95, 3 beyond p99
		{1000, 99},    // ten beyond p99, one beyond p99.9
		{15000, 99.9}, // ingest-feed: 15 beyond p99.9
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(xs, n=4), default exclusive method.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s.Median != 5.5 || s.Q1 != 2.75 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("summarize = %+v", s)
	}
}
