// Package failure estimates the paper's failure-rate function f_i(P, t)
// — the probability that a circle group bidding P suffers its first
// out-of-bid event in hour t — together with the expected spot price
// S_i(P) and the mean time to out-of-bid (MTTF) that drives the optimal
// checkpoint-interval formula.
//
// The estimator follows Section 4.4 ("Obtaining Failure Rate Function"):
// start from a point in the recent price history, scan forward for the
// first time the price exceeds the bid, and histogram the first-passage
// hour. Starts are taken either exhaustively (every sample, deterministic)
// or by Monte Carlo sampling. The history is treated as cyclic so every
// start has a full horizon of lookahead.
package failure

import (
	"math"

	"sompi/internal/stats"
	"sompi/internal/trace"
)

// Dist is the discrete failure-time distribution of one circle group for
// one bid price over a horizon of T hours.
type Dist struct {
	// T is the horizon in hours. Index t < T holds the probability that
	// the first out-of-bid event lands in [t, t+1); index T holds the
	// probability of surviving the whole horizon (the paper's t_i = T_i
	// "application completed" outcome).
	T int
	// P has length T+1 and sums to 1.
	P []float64
}

// Fail reports the probability of first failure in hour t (t < T).
func (d *Dist) Fail(t int) float64 { return d.P[t] }

// Complete reports the probability of surviving the whole horizon.
func (d *Dist) Complete() float64 { return d.P[d.T] }

// Survival reports P(first out-of-bid >= t hours), with Survival(0) = 1.
func (d *Dist) Survival(t int) float64 {
	s := 0.0
	for i := t; i <= d.T; i++ {
		s += d.P[i]
	}
	return s
}

// firstExceedCyclic scans the trace from sample index start, wrapping
// around at the end, for at most horizonHours. It returns the first-
// passage time in hours and whether the price exceeded the bid within the
// horizon.
func firstExceedCyclic(tr *trace.Trace, start int, bid, horizonHours float64) (float64, bool) {
	n := tr.Len()
	if n == 0 {
		return horizonHours, false
	}
	steps := int(math.Ceil(horizonHours / tr.Step))
	for i := 0; i < steps; i++ {
		if tr.Prices[(start+i)%n] > bid {
			return float64(i) * tr.Step, true
		}
	}
	return horizonHours, false
}

// exceedSteps returns, for every sample index, the number of samples to
// the first price (cyclically) strictly above the bid, or -1 when no
// sample in the whole history exceeds it. One O(n) backward sweep over
// the doubled index space replaces the O(n·horizon) per-start rescan of
// firstExceedCyclic; the distances are the same integers that scan would
// count, so every derived quantity is bit-identical.
func exceedSteps(tr *trace.Trace, bid float64) []int {
	n := tr.Len()
	dist := make([]int, n)
	next := -1
	for i := 2*n - 1; i >= 0; i-- {
		j := i
		if j >= n {
			j -= n
		}
		if tr.Prices[j] > bid {
			next = i
		}
		if i < n {
			if next < 0 {
				dist[i] = -1
			} else {
				dist[i] = next - i
			}
		}
	}
	return dist
}

// Estimate computes the failure-time distribution exhaustively: every
// sample of the history is used as a start point once, which makes the
// result deterministic and exact with respect to the empirical history.
// It panics on an empty history or non-positive horizon.
func Estimate(tr *trace.Trace, bid float64, horizon int) *Dist {
	return distOf(tr, exceedSteps(tr, bid), horizon)
}

// EstimateWithMTTF returns Estimate(tr, bid, horizon) and MTTF(tr, bid)
// from one sweep of the history instead of one each: the same distances
// through the same float operations in the same order, so bit-identical.
func EstimateWithMTTF(tr *trace.Trace, bid float64, horizon int) (*Dist, float64) {
	steps := exceedSteps(tr, bid)
	return distOf(tr, steps, horizon), mttfOf(tr, steps)
}

// distOf histograms the first-passage distances of exceedSteps.
func distOf(tr *trace.Trace, exceed []int, horizon int) *Dist {
	if tr.Len() == 0 {
		panic("failure: empty price history")
	}
	if horizon <= 0 {
		panic("failure: non-positive horizon")
	}
	d := &Dist{T: horizon, P: make([]float64, horizon+1)}
	steps := int(math.Ceil(float64(horizon) / tr.Step))
	for _, ds := range exceed {
		if ds >= 0 && ds < steps {
			d.record(float64(ds)*tr.Step, true)
		} else {
			d.record(float64(horizon), false)
		}
	}
	d.normalize(float64(tr.Len()))
	return d
}

// EstimateMC computes the distribution with g random start points, the
// paper's literal "repeat the same process for G times" procedure. It is
// used by the accuracy study to quantify sampling error against Estimate.
func EstimateMC(tr *trace.Trace, bid float64, horizon, g int, rng *stats.RNG) *Dist {
	if tr.Len() == 0 {
		panic("failure: empty price history")
	}
	if horizon <= 0 || g <= 0 {
		panic("failure: non-positive horizon or sample count")
	}
	d := &Dist{T: horizon, P: make([]float64, horizon+1)}
	for i := 0; i < g; i++ {
		h, exceeded := firstExceedCyclic(tr, rng.Intn(tr.Len()), bid, float64(horizon))
		d.record(h, exceeded)
	}
	d.normalize(float64(g))
	return d
}

func (d *Dist) record(h float64, exceeded bool) {
	if !exceeded || h >= float64(d.T) {
		d.P[d.T]++
		return
	}
	d.P[int(h)]++ // the paper discretizes failure times with floor
}

func (d *Dist) normalize(n float64) {
	for i := range d.P {
		d.P[i] /= n
	}
}

// RelativeError reports mean(|a-b| / max(a, eps)) over the buckets of two
// equal-horizon distributions — the §5.4.1 accuracy metric.
func RelativeError(a, b *Dist) float64 {
	if a.T != b.T {
		panic("failure: horizon mismatch")
	}
	const eps = 1e-9
	sum, n := 0.0, 0
	for i := range a.P {
		if a.P[i] < eps && b.P[i] < eps {
			continue
		}
		sum += math.Abs(a.P[i]-b.P[i]) / math.Max(a.P[i], eps)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MTTF reports the mean first-passage time (hours) of the history above
// the bid, estimated exhaustively with a generous horizon. Bids at or
// above the historical maximum never fail, giving +Inf — callers treat
// that as "checkpoints unnecessary".
func MTTF(tr *trace.Trace, bid float64) float64 {
	if tr.Len() == 0 {
		panic("failure: empty price history")
	}
	if bid >= tr.Max() {
		return math.Inf(1)
	}
	return mttfOf(tr, exceedSteps(tr, bid))
}

// mttfOf averages the first-passage distances of exceedSteps. A bid no
// price exceeds has every distance -1 and reads as censored: +Inf.
func mttfOf(tr *trace.Trace, exceed []int) float64 {
	horizon := tr.Duration() * 2
	steps := int(math.Ceil(horizon / tr.Step))
	sum := 0.0
	censored := false
	for _, ds := range exceed {
		if ds >= 0 && ds < steps {
			sum += float64(ds) * tr.Step
		} else {
			censored = true
			sum += horizon
		}
	}
	if censored {
		// Bid below the max but some cyclic scans still never exceeded it
		// (possible only when horizon truncates); treat as very reliable.
		return math.Inf(1)
	}
	return sum / float64(tr.Len())
}

// ExpectedSpotPrice reports S_i(P): the mean of the historical prices at
// or below the bid (what the group actually pays while running).
func ExpectedSpotPrice(tr *trace.Trace, bid float64) float64 {
	return tr.MeanBelow(bid)
}
