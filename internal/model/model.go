// Package model implements the paper's cost model (Section 3): circle
// groups, hybrid spot/on-demand plans, the remaining-work Ratio function
// (Formula 7), and estimators for the expected monetary cost (Formulas
// 2–6) and expected execution time (Formulas 8–11) of a plan.
//
// Two evaluators are provided. Evaluate computes the expectations exactly
// in O(K·T) per plan by exploiting the independence of per-group failure
// times: the spot cost is separable per group, and the on-demand
// cost/time depend only on min_i Ratio_i and max_i spot-time, whose
// expectations follow from survival-function products. EvaluateBrute
// (brute.go) enumerates the joint failure-time space O(T^K) exactly as
// the paper formulates it; tests assert the two agree to float precision.
//
// Because the optimizer evaluates hundreds of thousands of bid vectors,
// the per-(group, bid) work — failure distribution, expected price, the
// Ratio and spot-time distributions with their survival/CDF arrays — is
// captured once in a PreparedGroup and reused across plans. PrefixStack
// (prefix.go) goes one step further for the optimizer's depth-first
// search: sibling leaves share one merged survival product and price their
// cost against it, bit-identical to EvaluatePrepared's.
package model

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/failure"
	"sompi/internal/trace"
)

// Group is a circle group: spot instances of one type in one availability
// zone, sized and profiled for a specific application.
type Group struct {
	// Key names the market the group draws instances from.
	Key cloud.MarketKey
	// Instance is the group's instance type.
	Instance cloud.InstanceType
	// M is the number of instances (the paper's M_i = ceil(N/cores)).
	M int
	// T is the productive execution time in integer hours (the paper's
	// T_i; failure times are discretized to [0, T]).
	T int
	// O is the overhead of one coordinated checkpoint in hours.
	O float64
	// R is the recovery overhead in hours.
	R float64
	// Hist is the price history used for failure-rate and expected-price
	// estimation.
	Hist *trace.Trace

	// The per-bid derived quantities (failure distribution, expected
	// price, MTTF) are cached in two tiers. warm is an immutable snapshot
	// published by Prewarm and read without synchronization — the hot
	// path once the optimizer has warmed the bid grid. cold catches any
	// bid outside the warmed set under mu, so a Group stays correct (if
	// slower) for ad-hoc lookups from concurrent goroutines.
	warm atomic.Pointer[groupCaches]
	mu   sync.RWMutex
	cold groupCaches
}

// groupCaches holds the lazily-derived per-bid quantities of one Group.
type groupCaches struct {
	dist  map[float64]*failure.Dist
	price map[float64]float64
	mttf  map[float64]float64
}

func newGroupCaches(n int) groupCaches {
	return groupCaches{
		dist:  make(map[float64]*failure.Dist, n),
		price: make(map[float64]float64, n),
		mttf:  make(map[float64]float64, n),
	}
}

// NewGroup builds the circle group for running profile on instances of
// type it in the market described by hist.
func NewGroup(p app.Profile, it cloud.InstanceType, zone string, hist *trace.Trace) *Group {
	return &Group{
		Key:      cloud.MarketKey{Type: it.Name, Zone: zone},
		Instance: it,
		M:        it.InstancesFor(p.Procs),
		T:        app.EstimateHoursInt(p, it),
		O:        app.CheckpointHours(p, it),
		R:        app.RecoveryHours(p, it),
		Hist:     hist,
	}
}

// PassageSource supplies the profile-independent half of a group's
// per-bid caches — the history's first-passage sweep and expected spot
// price at one bid — so groups sized for different profiles on the same
// history can share one sweep. It must answer exactly what
// failure.NewPassage and failure.ExpectedSpotPrice give over the group's
// Hist.
type PassageSource func(bid float64) (*failure.Passage, float64)

// Prewarm derives and publishes the failure distribution, expected price
// and MTTF for every bid in bids, taking each bid's sweep and price from
// src, or sweeping Hist itself when src is nil. After it returns, lookups
// for those bids are lock-free; bids outside the warmed set fall back to
// the mutex-protected cold cache. Prewarm is intended for the optimizer's
// single-threaded prepare phase (warming the whole bid grid before the
// parallel search starts); concurrent Prewarm calls are safe but each
// snapshot supersedes the last, so racing warms may recompute work.
func (g *Group) Prewarm(bids []float64, src PassageSource) {
	g.mu.Lock()
	defer g.mu.Unlock()
	w := newGroupCaches(len(bids))
	if old := g.warm.Load(); old != nil {
		for k, v := range old.dist {
			w.dist[k] = v
		}
		for k, v := range old.price {
			w.price[k] = v
		}
		for k, v := range old.mttf {
			w.mttf[k] = v
		}
	}
	for _, bid := range bids {
		// The three maps are only ever filled together, here.
		if _, ok := w.dist[bid]; ok {
			continue
		}
		var p *failure.Passage
		if src != nil {
			p, w.price[bid] = src(bid)
		} else {
			p, w.price[bid] = failure.NewPassage(g.Hist, bid), failure.ExpectedSpotPrice(g.Hist, bid)
		}
		w.dist[bid], w.mttf[bid] = p.Dist(g.T), p.MTTF()
	}
	g.warm.Store(&w)
}

// Dist returns the failure-time distribution for the given bid, cached.
func (g *Group) Dist(bid float64) *failure.Dist {
	if w := g.warm.Load(); w != nil {
		if d, ok := w.dist[bid]; ok {
			return d
		}
	}
	g.mu.RLock()
	d, ok := g.cold.dist[bid]
	g.mu.RUnlock()
	if ok {
		return d
	}
	d = failure.Estimate(g.Hist, bid, g.T)
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.cold.dist[bid]; ok { // lost the compute race
		return prev
	}
	if g.cold.dist == nil {
		g.cold.dist = make(map[float64]*failure.Dist)
	}
	g.cold.dist[bid] = d
	return d
}

// ExpectedPrice reports S_i(bid), the mean price paid while running.
func (g *Group) ExpectedPrice(bid float64) float64 {
	if w := g.warm.Load(); w != nil {
		if s, ok := w.price[bid]; ok {
			return s
		}
	}
	g.mu.RLock()
	s, ok := g.cold.price[bid]
	g.mu.RUnlock()
	if ok {
		return s
	}
	s = failure.ExpectedSpotPrice(g.Hist, bid)
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.cold.price[bid]; ok {
		return prev
	}
	if g.cold.price == nil {
		g.cold.price = make(map[float64]float64)
	}
	g.cold.price[bid] = s
	return s
}

// MTTF reports the mean time to out-of-bid at the given bid, cached.
func (g *Group) MTTF(bid float64) float64 {
	if w := g.warm.Load(); w != nil {
		if m, ok := w.mttf[bid]; ok {
			return m
		}
	}
	g.mu.RLock()
	m, ok := g.cold.mttf[bid]
	g.mu.RUnlock()
	if ok {
		return m
	}
	m = failure.MTTF(g.Hist, bid)
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.cold.mttf[bid]; ok {
		return prev
	}
	if g.cold.mttf == nil {
		g.cold.mttf = make(map[float64]float64)
	}
	g.cold.mttf[bid] = m
	return m
}

// MaxBid reports H_i, the highest historical price — the top of the bid
// search space (a bid at H_i is "terminated in extremely low probability").
func (g *Group) MaxBid() float64 { return g.Hist.Max() }

// GroupPlan is one group with its chosen bid price and checkpoint
// interval.
type GroupPlan struct {
	Group *Group
	// Bid is the bid price P_i in $/instance-hour.
	Bid float64
	// Interval is the checkpoint interval F_i in hours. Interval >= T
	// means no checkpoints are taken (the paper's F_i = T_i convention).
	Interval float64
}

// Checkpoints reports how many checkpoints have been taken by hour t,
// the paper's ⌊t/F⌋ (zero when checkpointing is disabled).
func (gp GroupPlan) Checkpoints(t int) int {
	if gp.Interval >= float64(gp.Group.T) || gp.Interval <= 0 {
		return 0
	}
	return int(math.Floor(float64(t) / gp.Interval))
}

// SpotTime reports the wall-clock hours the group has consumed by
// productive hour t: t plus checkpoint overhead (Formula 5's
// t_i + O_i·⌊t_i/F_i⌋).
func (gp GroupPlan) SpotTime(t int) float64 {
	return float64(t) + gp.Group.O*float64(gp.Checkpoints(t))
}

// Ratio reports the fraction of the application still to execute when the
// group dies at hour t (Formula 7): 1 before the first checkpoint, 0 on
// completion, otherwise the unsaved work plus recovery overhead relative
// to the full run.
func (gp GroupPlan) Ratio(t int) float64 {
	T := float64(gp.Group.T)
	if t >= gp.Group.T {
		return 0
	}
	n := gp.Checkpoints(t)
	if n == 0 {
		return 1
	}
	rem := (T - float64(n)*gp.Interval + gp.Group.R) / T
	if rem > 1 {
		rem = 1
	}
	if rem < 0 {
		rem = 0
	}
	return rem
}

// OnDemand is the selected on-demand recovery configuration (the paper's
// d*, with T, D, M folded in).
type OnDemand struct {
	Instance cloud.InstanceType
	// M is the number of instances.
	M int
	// T is the full execution time of the application on this fleet in
	// hours.
	T float64
}

// NewOnDemand sizes an on-demand fleet of type it for profile p.
func NewOnDemand(p app.Profile, it cloud.InstanceType) OnDemand {
	return OnDemand{Instance: it, M: it.InstancesFor(p.Procs), T: app.EstimateHours(p, it)}
}

// Rate reports the fleet's cost per hour.
func (o OnDemand) Rate() float64 { return o.Instance.OnDemand * float64(o.M) }

// FullCost reports the cost of a complete from-scratch run (Formula 12).
func (o OnDemand) FullCost() float64 { return o.Rate() * o.T }

// Plan is a complete hybrid execution plan: replicated spot circle groups
// plus the on-demand recovery fleet.
type Plan struct {
	Groups   []GroupPlan
	Recovery OnDemand
}

// Validate reports an error if the plan is structurally unsound.
func (p Plan) Validate() error {
	for i, gp := range p.Groups {
		if gp.Group == nil {
			return fmt.Errorf("model: plan group %d is nil", i)
		}
		if gp.Bid <= 0 {
			return fmt.Errorf("model: plan group %d has non-positive bid %v", i, gp.Bid)
		}
		if gp.Interval <= 0 {
			return fmt.Errorf("model: plan group %d has non-positive interval %v", i, gp.Interval)
		}
	}
	if p.Recovery.M <= 0 || p.Recovery.T <= 0 {
		return fmt.Errorf("model: plan has no usable on-demand recovery")
	}
	return nil
}

// Estimate is the output of a plan evaluation.
type Estimate struct {
	// Cost is E[Cost(P,F,d)] in dollars; Time is E[Time(P,F,d)] in hours.
	Cost, Time float64
	// CostSpot/CostOD and TimeSpot/TimeOD split the expectations into
	// their spot and on-demand components (Formulas 4 and 9).
	CostSpot, CostOD float64
	TimeSpot, TimeOD float64
	// PAllFail is the probability that every circle group dies before
	// completing, i.e. that on-demand recovery runs at all.
	PAllFail float64
	// EMinRatio is the expected remaining-work fraction recovered
	// on-demand, E[min_i Ratio_i].
	EMinRatio float64
}

// PreparedGroup captures everything plan evaluation needs from one
// (group, bid, interval) triple. Building it costs O(T); combining
// prepared groups into a plan estimate costs O(K·T) with no distribution
// re-derivation, which is what makes the optimizer's bid-grid enumeration
// affordable.
type PreparedGroup struct {
	GP GroupPlan
	// costSpot is S_i · E[t + O⌊t/F⌋] · M_i, this group's separable
	// contribution to the expected spot cost.
	costSpot float64
	// complete is P(t_i = T_i).
	complete float64
	// Ratio distribution: ascending distinct values; ratioTail[j] =
	// P(Ratio > ratioVals[j-1]) with ratioTail[0] = 1.
	ratioVals, ratioTail []float64
	// Spot-time distribution: ascending distinct values; timeCDF[j] =
	// P(SpotTime <= timeVals[j-1]) with timeCDF[0] = 0.
	timeVals, timeCDF []float64
}

// CostSpot reports the group's separable contribution to the plan's
// expected spot cost — a lower bound on the cost of any plan containing
// this prepared group, which is what the optimizer's branch-and-bound
// pruning keys on.
func (pg *PreparedGroup) CostSpot() float64 { return pg.costSpot }

// Prepare evaluates the per-group distributions for one bid/interval
// choice.
func Prepare(gp GroupPlan) *PreparedGroup {
	d := gp.Group.Dist(gp.Bid)
	pg := &PreparedGroup{GP: gp, complete: d.Complete()}

	eSpot := 0.0
	for t := 0; t <= gp.Group.T; t++ {
		eSpot += d.P[t] * gp.SpotTime(t)
	}
	pg.costSpot = gp.Group.ExpectedPrice(gp.Bid) * eSpot * float64(gp.Group.M)

	pg.ratioVals, pg.ratioTail = tailDist(gp.Group.T, d, gp.Ratio)
	var timeProbs []float64
	pg.timeVals, timeProbs = sortedDist(gp.Group.T, d, gp.SpotTime)
	pg.timeCDF = make([]float64, len(pg.timeVals)+1)
	for j, p := range timeProbs {
		pg.timeCDF[j+1] = pg.timeCDF[j] + p
	}
	return pg
}

// sortedDist maps the failure-time distribution through f and returns
// ascending distinct values with their probabilities.
func sortedDist(T int, d *failure.Dist, f func(int) float64) (vals, probs []float64) {
	type vp struct{ v, p float64 }
	tmp := make([]vp, 0, T+1)
	for t := 0; t <= T; t++ {
		if d.P[t] == 0 {
			continue
		}
		tmp = append(tmp, vp{f(t), d.P[t]})
	}
	// Insertion sort: inputs are near-sorted (SpotTime ascending, Ratio
	// mostly descending), and T is at most ~100.
	for i := 1; i < len(tmp); i++ {
		for j := i; j > 0 && tmp[j].v < tmp[j-1].v; j-- {
			tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
		}
	}
	for _, e := range tmp {
		if n := len(vals); n > 0 && vals[n-1] == e.v {
			probs[n-1] += e.p
		} else {
			vals = append(vals, e.v)
			probs = append(probs, e.p)
		}
	}
	return vals, probs
}

// tailDist is sortedDist plus the survival array tail[j] = P(X > vals[j-1]).
func tailDist(T int, d *failure.Dist, f func(int) float64) (vals, tail []float64) {
	vals, probs := sortedDist(T, d, f)
	tail = make([]float64, len(vals)+1)
	tail[0] = 1
	for j, p := range probs {
		tail[j+1] = tail[j] - p
		if tail[j+1] < 0 {
			tail[j+1] = 0
		}
	}
	return vals, tail
}

// Evaluate computes the expected cost and time of the plan exactly.
// A plan with no groups is a pure on-demand run.
func Evaluate(p Plan) Estimate {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	pgs := make([]*PreparedGroup, len(p.Groups))
	for i, gp := range p.Groups {
		pgs[i] = Prepare(gp)
	}
	return EvaluatePrepared(pgs, p.Recovery)
}

// EvaluatePrepared combines prepared groups with a recovery fleet.
func EvaluatePrepared(pgs []*PreparedGroup, od OnDemand) Estimate {
	var e Evaluator
	return e.EvaluatePrepared(pgs, od)
}

// Evaluator evaluates prepared plans while reusing its scratch buffers,
// making each evaluation allocation-free. The optimizer's search workers
// each own one (an Evaluator must not be shared between goroutines); the
// package-level EvaluatePrepared remains for one-off callers.
type Evaluator struct {
	idx []int
}

// scratch returns a zeroed index buffer of length n.
func (e *Evaluator) scratch(n int) []int {
	if cap(e.idx) < n {
		e.idx = make([]int, n)
	}
	e.idx = e.idx[:n]
	for i := range e.idx {
		e.idx[i] = 0
	}
	return e.idx
}

// EvaluatePrepared combines prepared groups with a recovery fleet.
func (e *Evaluator) EvaluatePrepared(pgs []*PreparedGroup, od OnDemand) Estimate {
	if len(pgs) == 0 {
		full := od.Rate() * od.T
		return Estimate{
			Cost: full, CostOD: full,
			Time: od.T, TimeOD: od.T,
			PAllFail: 1, EMinRatio: 1,
		}
	}
	var est Estimate
	est.PAllFail = 1
	for _, pg := range pgs {
		est.CostSpot += pg.costSpot
		est.PAllFail *= 1 - pg.complete
	}
	est.EMinRatio = expectedMin(pgs, e.scratch(len(pgs)))
	est.TimeSpot = expectedMax(pgs, e.scratch(len(pgs)))
	est.CostOD = est.EMinRatio * od.T * od.Rate()
	est.TimeOD = est.EMinRatio * od.T
	est.Cost = est.CostSpot + est.CostOD
	est.Time = est.TimeSpot + est.TimeOD
	return est
}

// expectedMin computes E[min_i Ratio_i] for independent groups via
// E[min] = ∫ Π_i P(Ratio_i > x) dx, walking the merged support points
// without materializing them. idx is caller-supplied zeroed scratch of
// length len(pgs).
func expectedMin(pgs []*PreparedGroup, idx []int) float64 {
	prev, e := 0.0, 0.0
	for {
		next := math.Inf(1)
		for i, pg := range pgs {
			for idx[i] < len(pg.ratioVals) && pg.ratioVals[idx[i]] <= prev {
				idx[i]++
			}
			if idx[i] < len(pg.ratioVals) && pg.ratioVals[idx[i]] < next {
				next = pg.ratioVals[idx[i]]
			}
		}
		if math.IsInf(next, 1) {
			return e
		}
		prod := 1.0
		for i, pg := range pgs {
			prod *= pg.ratioTail[idx[i]]
		}
		e += (next - prev) * prod
		prev = next
	}
}

// expectedMax computes E[max_i SpotTime_i] via
// E[max] = ∫ (1 − Π_i P(SpotTime_i <= x)) dx. idx is caller-supplied
// zeroed scratch of length len(pgs).
func expectedMax(pgs []*PreparedGroup, idx []int) float64 {
	prev, e := 0.0, 0.0
	for {
		next := math.Inf(1)
		for i, pg := range pgs {
			for idx[i] < len(pg.timeVals) && pg.timeVals[idx[i]] <= prev {
				idx[i]++
			}
			if idx[i] < len(pg.timeVals) && pg.timeVals[idx[i]] < next {
				next = pg.timeVals[idx[i]]
			}
		}
		if math.IsInf(next, 1) {
			return e
		}
		prod := 1.0
		for i, pg := range pgs {
			prod *= pg.timeCDF[idx[i]]
		}
		e += (next - prev) * (1 - prod)
		prev = next
	}
}
