// Package trace models spot-price histories: fixed-step time series with
// the window, scan and statistics operations the SOMPI cost model needs,
// plus a regime-switching synthetic generator calibrated to the market
// behaviour the paper reports for Amazon EC2 in 2014 (Section 2.1) and a
// CSV codec for importing real price histories.
package trace

import (
	"math"

	"sompi/internal/stats"
)

// DefaultStep is the sampling interval of generated traces in hours.
// Amazon updated spot prices every few minutes in 2014; five minutes is the
// granularity the paper's replay simulation works at.
const DefaultStep = 1.0 / 12

// Trace is a spot-price history sampled at a fixed step.
//
// A trace has an absolute clock: sample i of a fresh trace covers hours
// [i*Step, (i+1)*Step). Ring-buffer retention (Compact) may drop the
// oldest samples without shifting that clock — Head records how many
// were dropped, so Prices[0] is the sample for hour Head*Step and
// Duration still reports the absolute frontier. Statistics (Max, Mean,
// MeanBelow, FractionBelow, Histogram) operate on the retained samples
// only.
//
// A trace handed out by a market (or windowed from one) is a read-only
// view whose Prices is capped (cap == len): the market keeps appending
// past its end into the same backing array, so a reader must never
// write its samples, and an append onto it copies.
type Trace struct {
	// Step is the sampling interval in hours.
	Step float64
	// Prices holds one $/instance-hour sample per step.
	Prices []float64
	// Head counts samples compacted away from the front of the series.
	// Zero for every trace except the result of Compact (and views of
	// it), so pre-existing code that builds Trace literals is unaffected.
	Head int
}

// New returns a trace with the given step wrapping prices. It panics on a
// non-positive step.
func New(step float64, prices []float64) *Trace {
	if step <= 0 {
		panic("trace: non-positive step")
	}
	return &Trace{Step: step, Prices: prices}
}

// Len reports the number of retained samples.
func (t *Trace) Len() int { return len(t.Prices) }

// Duration reports the absolute time frontier in hours: the span the
// trace has observed, including any samples Compact dropped.
func (t *Trace) Duration() float64 { return float64(t.Head+len(t.Prices)) * t.Step }

// StartHour reports the absolute hour of the oldest retained sample —
// zero until Compact drops samples. Lookups and windows before this hour
// are clamped to the retained range.
func (t *Trace) StartHour() float64 { return float64(t.Head) * t.Step }

// IndexAt converts an absolute hour offset into an index into Prices,
// clamped to the retained range.
func (t *Trace) IndexAt(hour float64) int {
	i := int(hour/t.Step) - t.Head
	if i < 0 {
		i = 0
	}
	if i >= len(t.Prices) {
		i = len(t.Prices) - 1
	}
	return i
}

// At reports the price in effect at the given hour offset.
func (t *Trace) At(hour float64) float64 {
	if len(t.Prices) == 0 {
		return 0
	}
	return t.Prices[t.IndexAt(hour)]
}

// Window returns the sub-trace covering [startHour, startHour+durHours)
// in absolute hours. The window is clamped to the retained samples; the
// samples are shared, not copied, because windows are read-only views in
// this codebase, and capped, so an append onto one copies. The result is
// detached from the absolute clock (Head 0): a training window is its
// own coordinate system, exactly as before compaction existed.
func (t *Trace) Window(startHour, durHours float64) *Trace {
	lo := int(startHour/t.Step) - t.Head
	hi := int(math.Ceil((startHour+durHours)/t.Step)) - t.Head
	if lo < 0 {
		lo = 0
	}
	if hi < 0 {
		// The window lies entirely before the compaction head: clamp to
		// an empty window instead of slicing with a negative bound.
		hi = 0
	}
	if hi > len(t.Prices) {
		hi = len(t.Prices)
	}
	if lo > hi {
		lo = hi
	}
	return &Trace{Step: t.Step, Prices: t.Prices[lo:hi:hi]}
}

// Compact drops the n oldest retained samples and returns the compacted
// trace, advancing Head so the absolute clock (Duration, IndexAt, Window
// coordinates) is unchanged. The receiver is not mutated. n is clamped
// to [0, Len()].
func (t *Trace) Compact(n int) *Trace {
	if n <= 0 {
		return t
	}
	if n > len(t.Prices) {
		n = len(t.Prices)
	}
	return &Trace{Step: t.Step, Prices: t.Prices[n:], Head: t.Head + n}
}

// Max reports the highest price in the history — the paper's H_i, the upper
// bound of the bid search space for a circle group.
func (t *Trace) Max() float64 {
	m := 0.0
	for _, p := range t.Prices {
		if p > m {
			m = p
		}
	}
	return m
}

// Mean reports the average price, the bid used by the Spot-Avg heuristic.
func (t *Trace) Mean() float64 {
	if len(t.Prices) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range t.Prices {
		s += p
	}
	return s / float64(len(t.Prices))
}

// MeanBelow reports the average of the samples at or below bid — the
// paper's expected spot price S_i(P): "we find the spot prices lower than
// the bid price P_i from the spot price history, and use their mean value".
// If no sample is at or below the bid (the instance would never launch) it
// returns bid itself, the most pessimistic admissible charge.
func (t *Trace) MeanBelow(bid float64) float64 {
	s, n := 0.0, 0
	for _, p := range t.Prices {
		if p <= bid {
			s += p
			n++
		}
	}
	if n == 0 {
		return bid
	}
	return s / float64(n)
}

// FractionBelow reports the fraction of samples at or below bid, a quick
// availability proxy used by tests and the market study example.
func (t *Trace) FractionBelow(bid float64) float64 {
	if len(t.Prices) == 0 {
		return 0
	}
	n := 0
	for _, p := range t.Prices {
		if p <= bid {
			n++
		}
	}
	return float64(n) / float64(len(t.Prices))
}

// Histogram bins the prices of the trace into the given geometry.
func (t *Trace) Histogram(lo, hi float64, bins int) *stats.Histogram {
	h := stats.NewHistogram(lo, hi, bins)
	for _, p := range t.Prices {
		h.Add(p)
	}
	return h
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	p := make([]float64, len(t.Prices))
	copy(p, t.Prices)
	return &Trace{Step: t.Step, Prices: p, Head: t.Head}
}
