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
// sample in the whole history exceeds it, plus the longest distance. One
// O(n) backward sweep replaces the O(n·horizon) per-start rescan of
// firstExceedCyclic: it starts one lap ahead at the first exceedance,
// which is where a start past the last one lands after wrapping. The
// distances are the same integers that scan would count, so every
// derived quantity is bit-identical.
func exceedSteps(tr *trace.Trace, bid float64) (dist []int32, longest int32) {
	n := tr.Len()
	dist = make([]int32, n)
	next := -1
	for j, p := range tr.Prices {
		if p > bid {
			next = j + n
			break
		}
	}
	if next < 0 {
		for i := range dist {
			dist[i] = -1
		}
		return dist, -1
	}
	for i := n - 1; i >= 0; i-- {
		if tr.Prices[i] > bid {
			next = i
		}
		dist[i] = int32(next - i)
		longest = max(longest, dist[i])
	}
	return dist, longest
}

// Passage is one exhaustive first-passage sweep of a price history at
// one bid: for every distance d, how many start samples first see a
// price above the bid d samples later, plus the MTTF of the same sweep.
// Nothing in it depends on a horizon — that enters only when Dist groups
// the counts into hours — so one Passage serves every circle group that
// draws on the same history, whatever its T. Immutable once built.
type Passage struct {
	step float64
	n    int
	// counts[d] is the number of starts whose first exceedance is d
	// samples away; starts that never exceed are n minus the total.
	counts []int32
	mttf   float64
}

// NewPassage sweeps tr once at bid. It panics on an empty history.
func NewPassage(tr *trace.Trace, bid float64) *Passage {
	n := tr.Len()
	if n == 0 {
		panic("failure: empty price history")
	}
	exceed, longest := exceedSteps(tr, bid)
	// One pass in sample order fills the histogram and the MTTF. The MTTF
	// is a float sum, so it is taken from the distances in this order,
	// never re-derived from the order-free histogram. Its horizon is
	// generous: twice the history, so only a bid no price exceeds is
	// censored (+Inf).
	counts := make([]int32, longest+1)
	horizon := tr.Duration() * 2
	steps := int(math.Ceil(horizon / tr.Step))
	sum, censored := 0.0, false
	for _, ds := range exceed {
		if ds >= 0 {
			counts[ds]++
		}
		if ds >= 0 && int(ds) < steps {
			sum += float64(ds) * tr.Step
		} else {
			censored = true
			sum += horizon
		}
	}
	mttf := math.Inf(1)
	if !censored {
		mttf = sum / float64(n)
	}
	return &Passage{step: tr.Step, n: n, counts: counts, mttf: mttf}
}

// MTTF reports the sweep's mean first-passage time in hours (+Inf when
// some start never exceeds the bid).
func (p *Passage) MTTF() float64 { return p.mttf }

// Dist groups the sweep into the failure-time distribution over horizon
// hours. It is bit-identical to histogramming every start on its own:
// each bucket is a sum of whole counts, exact in float64 in any order,
// and the normalization is the same division.
// It panics on a non-positive horizon.
func (p *Passage) Dist(horizon int) *Dist {
	if horizon <= 0 {
		panic("failure: non-positive horizon")
	}
	d := &Dist{T: horizon, P: make([]float64, horizon+1)}
	steps := int(math.Ceil(float64(horizon) / p.step))
	within := 0
	for ds, c := range p.counts[:min(steps, len(p.counts))] {
		// A passage that lands at or past the horizon is a completion,
		// exactly as record files it.
		if h := float64(ds) * p.step; c > 0 && h < float64(horizon) {
			d.P[int(h)] += float64(c)
			within += int(c)
		}
	}
	d.P[horizon] = float64(p.n - within)
	d.normalize(float64(p.n))
	return d
}

// Estimate computes the failure-time distribution exhaustively: every
// sample of the history is used as a start point once, which makes the
// result deterministic and exact with respect to the empirical history.
// It panics on an empty history or non-positive horizon.
func Estimate(tr *trace.Trace, bid float64, horizon int) *Dist {
	return NewPassage(tr, bid).Dist(horizon)
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
	return NewPassage(tr, bid).MTTF()
}

// ExpectedSpotPrice reports S_i(P): the mean of the historical prices at
// or below the bid (what the group actually pays while running).
func ExpectedSpotPrice(tr *trace.Trace, bid float64) float64 {
	return tr.MeanBelow(bid)
}
