package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram counts observations into equal-width bins over [Lo, Hi).
// Observations below Lo land in the first bin and observations at or above
// Hi land in the last bin, so total mass is never lost; the paper's spot
// price histograms (Figure 2) need exactly this clamping because spike
// prices exceed any fixed axis.
type Histogram struct {
	Lo, Hi float64
	Counts []uint64
	total  uint64
}

// NewHistogram builds a histogram with bins equal-width bins over [lo, hi).
// It panics on a non-positive bin count or an empty interval.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if !(hi > lo) {
		panic(fmt.Sprintf("stats: histogram interval [%v,%v) is empty", lo, hi))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	h.Counts[h.binOf(v)]++
	h.total++
}

func (h *Histogram) binOf(v float64) int {
	if v < h.Lo {
		return 0
	}
	if v >= h.Hi {
		return len(h.Counts) - 1
	}
	bin := int(float64(len(h.Counts)) * (v - h.Lo) / (h.Hi - h.Lo))
	if bin >= len(h.Counts) { // float edge case at v just below Hi
		bin = len(h.Counts) - 1
	}
	return bin
}

// Total reports the number of recorded observations.
func (h *Histogram) Total() uint64 { return h.total }

// BinWidth reports the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinCenter reports the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Density reports the fraction of observations in bin i.
func (h *Histogram) Density(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// Distance reports the L1 (total variation x2) distance between the
// densities of two histograms with identical geometry. It panics if the
// geometries differ. The paper's "stable spot price distribution" claim
// (Figure 2) is quantified with this metric.
func (h *Histogram) Distance(o *Histogram) float64 {
	if len(h.Counts) != len(o.Counts) || h.Lo != o.Lo || h.Hi != o.Hi {
		panic("stats: histogram geometries differ")
	}
	var d float64
	for i := range h.Counts {
		d += math.Abs(h.Density(i) - o.Density(i))
	}
	return d
}

// String renders the histogram as an ASCII bar chart, one bin per line.
func (h *Histogram) String() string {
	var b strings.Builder
	maxD := 0.0
	for i := range h.Counts {
		if d := h.Density(i); d > maxD {
			maxD = d
		}
	}
	for i := range h.Counts {
		d := h.Density(i)
		bar := 0
		if maxD > 0 {
			bar = int(40 * d / maxD)
		}
		fmt.Fprintf(&b, "%8.4f | %-40s %.3f\n", h.BinCenter(i), strings.Repeat("#", bar), d)
	}
	return b.String()
}
