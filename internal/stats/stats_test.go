package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("differently seeded streams collided %d/1000 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(r.Float64())
	}
	if m := s.Mean(); math.Abs(m-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", m)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) produced only %d distinct values", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(13)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(r.NormFloat64())
	}
	if m := s.Mean(); math.Abs(m) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", m)
	}
	if sd := s.Std(); math.Abs(sd-1) > 0.02 {
		t.Fatalf("normal std %v too far from 1", sd)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(17)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(r.Exp(2.0))
	}
	if m := s.Mean(); math.Abs(m-0.5) > 0.02 {
		t.Fatalf("Exp(2) mean %v too far from 0.5", m)
	}
}

func TestRNGExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(5)
	child := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d/1000 times", same)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(23)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d, want 5", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v, want 3", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v, want 1/5", s.Min(), s.Max())
	}
	if s.Median() != 3 {
		t.Fatalf("Median = %v, want 3", s.Median())
	}
	if math.Abs(s.Var()-2) > 1e-12 {
		t.Fatalf("Var = %v, want 2", s.Var())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 {
		t.Fatal("empty summary should report zero moments")
	}
	if !math.IsInf(s.Min(), 1) || !math.IsInf(s.Max(), -1) {
		t.Fatal("empty summary min/max should be infinities")
	}
}

func TestSummaryQuantileInterpolation(t *testing.T) {
	var s Summary
	s.Add(0)
	s.Add(10)
	if q := s.Quantile(0.25); math.Abs(q-2.5) > 1e-12 {
		t.Fatalf("Quantile(0.25) = %v, want 2.5", q)
	}
}

func TestSummaryQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(1.5) did not panic")
		}
	}()
	var s Summary
	s.Add(1)
	s.Quantile(1.5)
}

func TestSummaryAddAfterSort(t *testing.T) {
	var s Summary
	s.Add(5)
	_ = s.Min() // forces sort
	s.Add(1)
	if s.Min() != 1 {
		t.Fatalf("Min after post-sort Add = %v, want 1", s.Min())
	}
}

func TestSummaryQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var s Summary
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Add(v)
			}
		}
		if s.N() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			cur := s.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryVarNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		var s Summary
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e100 {
				s.Add(v)
			}
		}
		return s.Var() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(0.5)
	h.Add(9.5)
	h.Add(5.0)
	if h.Counts[0] != 1 || h.Counts[9] != 1 || h.Counts[5] != 1 {
		t.Fatalf("unexpected counts %v", h.Counts)
	}
	if h.Total() != 3 {
		t.Fatalf("Total = %d, want 3", h.Total())
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-5)
	h.Add(100)
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Fatalf("out-of-range values were not clamped: %v", h.Counts)
	}
}

func TestHistogramEdgeJustBelowHi(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	h.Add(math.Nextafter(1, 0))
	if h.Counts[2] != 1 {
		t.Fatalf("value just below Hi landed in %v", h.Counts)
	}
}

func TestHistogramDensitySumsToOne(t *testing.T) {
	f := func(vals []float64, seed uint64) bool {
		h := NewHistogram(-1, 1, 8)
		r := NewRNG(seed)
		n := len(vals) + 1
		for i := 0; i < n; i++ {
			h.Add(r.NormFloat64())
		}
		sum := 0.0
		for i := range h.Counts {
			sum += h.Density(i)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramDistanceSelfZero(t *testing.T) {
	h := NewHistogram(0, 1, 5)
	r := NewRNG(9)
	for i := 0; i < 100; i++ {
		h.Add(r.Float64())
	}
	if d := h.Distance(h); d != 0 {
		t.Fatalf("self-distance = %v, want 0", d)
	}
}

func TestHistogramDistanceSymmetric(t *testing.T) {
	a := NewHistogram(0, 1, 5)
	b := NewHistogram(0, 1, 5)
	r := NewRNG(10)
	for i := 0; i < 200; i++ {
		a.Add(r.Float64())
		b.Add(r.Float64() * r.Float64())
	}
	if math.Abs(a.Distance(b)-b.Distance(a)) > 1e-12 {
		t.Fatal("distance is not symmetric")
	}
}

func TestHistogramDistanceGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched geometry did not panic")
		}
	}()
	NewHistogram(0, 1, 5).Distance(NewHistogram(0, 2, 5))
}

func TestHistogramConstructorPanics(t *testing.T) {
	for _, tc := range []struct {
		lo, hi float64
		bins   int
	}{
		{0, 1, 0},
		{1, 1, 5},
		{2, 1, 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%v,%v,%d) did not panic", tc.lo, tc.hi, tc.bins)
				}
			}()
			NewHistogram(tc.lo, tc.hi, tc.bins)
		}()
	}
}
