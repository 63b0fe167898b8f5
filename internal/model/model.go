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

	// bids caches the per-bid derived quantities under mu. bid_grid fills
	// the optimizer's whole grid through Prewarm before the search; a
	// lookup of any other bid fills its entry through the same code.
	mu   sync.Mutex
	bids map[float64]bidStats
}

// bidStats holds the per-bid quantities of one Group, derived together
// from one first-passage sweep and one expected-price scan.
type bidStats struct {
	dist  *failure.Dist
	price float64
	mttf  float64
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

// Prewarm derives the failure distribution, expected price and MTTF for
// every bid in bids, taking each bid's sweep and price from src, or
// sweeping Hist itself when src is nil. Bids already cached are skipped.
// The optimizer warms its whole bid grid this way before the search, so
// a shared PassageSource can serve every group on the same history.
func (g *Group) Prewarm(bids []float64, src PassageSource) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, bid := range bids {
		g.fill(bid, src)
	}
}

// fill returns bid's cached quantities, deriving and caching them first
// on a miss. g.mu must be held.
func (g *Group) fill(bid float64, src PassageSource) bidStats {
	if s, ok := g.bids[bid]; ok {
		return s
	}
	var p *failure.Passage
	var s bidStats
	if src != nil {
		p, s.price = src(bid)
	} else {
		p, s.price = failure.NewPassage(g.Hist, bid), failure.ExpectedSpotPrice(g.Hist, bid)
	}
	s.mttf = p.MTTF()
	if g.T > 0 { // a hand-built group may have no horizon; Dist refuses it
		s.dist = p.Dist(g.T)
	}
	if g.bids == nil {
		g.bids = make(map[float64]bidStats)
	}
	g.bids[bid] = s
	return s
}

func (g *Group) lookup(bid float64) bidStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fill(bid, nil)
}

// Dist returns the failure-time distribution for the given bid, cached.
// It panics on a group whose T is not positive, as failure.Estimate does.
func (g *Group) Dist(bid float64) *failure.Dist {
	d := g.lookup(bid).dist
	if d == nil {
		panic("model: non-positive group horizon")
	}
	return d
}

// ExpectedPrice reports S_i(bid), the mean price paid while running.
func (g *Group) ExpectedPrice(bid float64) float64 { return g.lookup(bid).price }

// MTTF reports the mean time to out-of-bid at the given bid, cached.
func (g *Group) MTTF(bid float64) float64 { return g.lookup(bid).mttf }

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
	// Plan.Validate admits no interval below T/2^53, nor NaN: ⌊t/F⌋ then
	// fits an int, and with the group's O finite and >= 0 and R not NaN,
	// SpotTime and Ratio are monotone in t, as Prepare relies on.
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
		if minF := float64(gp.Group.T) / (1 << 53); !(gp.Interval > 0 && gp.Interval >= minF) {
			return fmt.Errorf("model: plan group %d has interval %v, want > 0 and >= T/2^53 = %v", i, gp.Interval, minF)
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
	// eRatio is E[Ratio], the one-group EMinRatio to the bit; the prefix
	// stack's leaf bound multiplies these.
	eRatio float64
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
// choice in one O(T) walk over t. Under GroupPlan.Interval's bound,
// SpotTime never falls and Ratio never rises in t, so each support comes
// out sorted with equal values adjacent, their masses summed in
// ascending t: bit for bit what a stable sort and merge would give.
func Prepare(gp GroupPlan) *PreparedGroup {
	d := gp.Group.Dist(gp.Bid)
	T := gp.Group.T
	pg := &PreparedGroup{GP: gp, complete: d.Complete()}

	// One backing array: ≤ T+1 spot times, and ≤ one Ratio per checkpoint
	// count before T plus 0 at T. Until the walk ends, cdf and tail hold
	// each value's mass one slot right; Ratio values fill from the top.
	k := min(T+1, gp.Checkpoints(T-1)+2)
	buf := make([]float64, 2*T+3+2*k+1)
	times, cdf := buf[:0:T+1], buf[T+1:2*T+3]
	ratios, tail, lo := buf[2*T+3:2*T+3+k], buf[2*T+3+k:], k
	eSpot := 0.0
	for t := 0; t <= T; t++ {
		p, st := d.P[t], gp.SpotTime(t)
		eSpot += p * st
		if p == 0 {
			continue
		}
		if n := len(times); n > 0 && times[n-1] == st {
			cdf[n] += p
		} else {
			times = append(times, st)
			cdf[n+1] = p
		}
		if r := gp.Ratio(t); lo < k && ratios[lo] == r {
			tail[lo+1] += p
		} else {
			lo--
			ratios[lo], tail[lo+1] = r, p
		}
	}
	pg.costSpot = gp.Group.ExpectedPrice(gp.Bid) * eSpot * float64(gp.Group.M)

	for j := range times {
		cdf[j+1] += cdf[j]
	}
	ratios, tail = ratios[lo:], tail[lo:]
	tail[0] = 1
	for j := range ratios {
		if tail[j+1] = tail[j] - tail[j+1]; tail[j+1] < 0 {
			tail[j+1] = 0
		}
	}
	pg.timeVals, pg.timeCDF = times, cdf[:len(times)+1]
	pg.ratioVals, pg.ratioTail = ratios, tail
	pg.eRatio = pg.meanRatio()
	return pg
}

// meanRatio integrates the group's survival step, ∫ P(Ratio > x) dx over
// x > 0, with the terms and order expectedMin uses for one group.
func (pg *PreparedGroup) meanRatio() float64 {
	vals, tail := pg.ratioStep()
	prev, e := 0.0, 0.0
	for j, x := range vals {
		e += (x - prev) * tail[j]
		prev = x
	}
	return e
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
