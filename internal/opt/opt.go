// Package opt implements SOMPI, the paper's monetary-cost optimizer
// (Section 4): on-demand instance type selection (Formulas 12–13), the
// two-level optimization that collapses checkpoint intervals into a
// function of the bid price (F = φ(P), Theorem 1) and searches bid prices
// on a logarithmic grid, the κ-subset circle-group selection of Section
// 4.4, and the adaptive window-by-window re-optimization of Algorithm 1.
package opt

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/model"
	"sompi/internal/obs"
)

// Defaults from the paper's parameter study (Section 5.2).
const (
	// DefaultSlack reserves 20% of the deadline for checkpoint/recovery
	// overhead when sizing the on-demand fleet.
	DefaultSlack = 0.20
	// DefaultKappa is the number of circle groups SOMPI actually uses.
	DefaultKappa = 4
	// DefaultGridLevels is the number of logarithmic bid-price points per
	// group: H, H/2, H/4, ... H/2^(levels-1).
	DefaultGridLevels = 6
	// DefaultWindow is the adaptive optimization window T_m in hours.
	DefaultWindow = 15.0
	// DefaultMaxGroups caps the candidate groups entering the κ-subset
	// traversal (see Config.MaxGroups).
	DefaultMaxGroups = 8
)

// Config parameterizes one optimization.
type Config struct {
	// Profile is the application to run.
	Profile app.Profile
	// Market supplies price history for every candidate circle group.
	// The optimizer only reads the shards named by Candidates (plus the
	// catalog for the recovery fleet); callers with a live *cloud.Market
	// should pass a Capture so ingestion cannot race the search.
	Market cloud.MarketView
	// Deadline is the user's completion deadline in hours.
	Deadline float64
	// Slack, Kappa and GridLevels default to the paper's values when zero.
	Slack      float64
	Kappa      int
	GridLevels int
	// Candidates restricts the circle-group markets considered; nil means
	// every (type, zone) in the market.
	Candidates []cloud.MarketKey
	// OnDemandTypes restricts the recovery-fleet candidates; nil means the
	// whole catalog.
	OnDemandTypes []cloud.InstanceType
	// MaxGroups caps how many candidate groups enter the κ-subset
	// traversal, keeping the strongest standalone performers. The paper's
	// K is all 12 (type, zone) markets; pruning to the default 8 preserves
	// the optimum in practice (the dropped markets are strictly dominated)
	// while cutting the subset space by 5x.
	MaxGroups int
	// DisableCheckpoints forces F = T on every group (the w/o-CK and
	// All-Unable ablations of Section 5.4.2).
	DisableCheckpoints bool
	// MaxAllFail, when positive, rejects plans whose probability that
	// every circle group dies exceeds it. The adaptive loop uses this in
	// its final committed window, where an all-groups-dead outcome means
	// an on-demand recovery that can overshoot the deadline.
	MaxAllFail float64
	// Workers has no effect: the subset search runs on one goroutine.
	// A negative value is still ErrInvalidConfig.
	//
	// Deprecated: leave it zero.
	Workers int
	// DisablePruning turns off the branch-and-bound lower-bound cuts,
	// forcing exhaustive enumeration. The optimum is unaffected either
	// way (pruning only discards provably-dominated subtrees); the knob
	// exists for the benchmark-regression harness and the determinism
	// tests.
	DisablePruning bool
	// InitialIncumbent has no effect: every search starts its incumbent
	// at the on-demand baseline. A negative value is still
	// ErrInvalidConfig.
	//
	// Deprecated: leave it zero.
	InitialIncumbent float64
	// Reuse, when non-nil, carries prepared-group state (failure
	// distributions, bid grids, standalone ranking costs) across
	// optimizations of the same market. Hits are exact — keyed on the
	// shard version vector and window bounds — so the plan is
	// unaffected; skipped work is reported in Result.SavedEvals and
	// Result.ReusedGroups. Views that cannot state their window bounds
	// exactly run cold. The cache is safe for concurrent optimizations.
	Reuse *ReuseCache
	// Explain records the decision trail — per-candidate keep/reject
	// reasons, per-stage durations, the selected subset — into
	// Result.Explain. The plan itself is unaffected; the trail costs a
	// few allocations and clock reads, so it is off by default.
	Explain bool
}

func (c Config) withDefaults() Config {
	if c.Slack == 0 {
		c.Slack = DefaultSlack
	}
	if c.Kappa == 0 {
		c.Kappa = DefaultKappa
	}
	if c.GridLevels == 0 {
		c.GridLevels = DefaultGridLevels
	}
	if c.MaxGroups == 0 {
		c.MaxGroups = DefaultMaxGroups
	}
	if c.Candidates == nil && c.Market != nil {
		c.Candidates = c.Market.Keys()
	}
	if c.OnDemandTypes == nil && c.Market != nil {
		c.OnDemandTypes = c.Market.Catalog()
	}
	return c
}

// validate reports ErrInvalidConfig-wrapped errors for numeric fields a
// defaulted Config cannot repair. It runs after withDefaults, so zero
// values have already been replaced by the paper's defaults and anything
// still out of range was set deliberately — and wrongly — by the caller.
func (c Config) validate() error {
	switch {
	case c.Market == nil:
		return fmt.Errorf("%w: nil market", ErrInvalidConfig)
	case math.IsNaN(c.Deadline) || c.Deadline <= 0:
		return fmt.Errorf("%w: non-positive deadline %v", ErrInvalidConfig, c.Deadline)
	case c.Slack < 0 || c.Slack >= 1:
		return fmt.Errorf("%w: slack %v outside [0,1)", ErrInvalidConfig, c.Slack)
	case c.Kappa < 1:
		return fmt.Errorf("%w: non-positive kappa %d", ErrInvalidConfig, c.Kappa)
	case c.GridLevels < 1:
		return fmt.Errorf("%w: non-positive grid levels %d", ErrInvalidConfig, c.GridLevels)
	case c.MaxGroups < 1:
		return fmt.Errorf("%w: non-positive max groups %d", ErrInvalidConfig, c.MaxGroups)
	case c.Kappa > c.MaxGroups:
		return fmt.Errorf("%w: kappa %d exceeds max groups %d", ErrInvalidConfig, c.Kappa, c.MaxGroups)
	case c.MaxAllFail < 0 || c.MaxAllFail > 1:
		return fmt.Errorf("%w: max-all-fail %v outside [0,1]", ErrInvalidConfig, c.MaxAllFail)
	case c.Workers < 0:
		return fmt.Errorf("%w: negative worker count %d", ErrInvalidConfig, c.Workers)
	case math.IsNaN(c.InitialIncumbent) || c.InitialIncumbent < 0:
		return fmt.Errorf("%w: negative initial incumbent %v", ErrInvalidConfig, c.InitialIncumbent)
	}
	return nil
}

// SelectOnDemand solves Formulas 12–13: among types whose execution time
// fits within Deadline·(1−Slack), pick the one with the smallest full-run
// cost. This decision is independent of the bid/interval choices (Section
// 4.1), which is what makes the divide-and-conquer split sound.
func SelectOnDemand(types []cloud.InstanceType, p app.Profile, deadline, slack float64) (model.OnDemand, error) {
	if len(types) == 0 {
		types = cloud.DefaultCatalog()
	}
	budget := deadline * (1 - slack)
	best := model.OnDemand{}
	bestCost := math.Inf(1)
	for _, it := range types {
		od := model.NewOnDemand(p, it)
		if od.T > budget {
			continue
		}
		if c := od.FullCost(); c < bestCost {
			best, bestCost = od, c
		}
	}
	if math.IsInf(bestCost, 1) {
		return model.OnDemand{}, ErrDeadlineInfeasible
	}
	return best, nil
}

// FastestOnDemand returns the minimum-execution-time fleet — the paper's
// Baseline and the fallback when no type meets the deadline.
func FastestOnDemand(types []cloud.InstanceType, p app.Profile) model.OnDemand {
	if len(types) == 0 {
		types = cloud.DefaultCatalog()
	}
	best := model.OnDemand{}
	bestT := math.Inf(1)
	for _, it := range types {
		od := model.NewOnDemand(p, it)
		if od.T < bestT {
			best, bestT = od, od.T
		}
	}
	return best
}

// Phi is the paper's F = φ(P) dimension-reduction: given a bid price, the
// optimal checkpoint interval follows from the bid-dependent mean time to
// out-of-bid via the Young/Daly first-order formula √(2·O·MTTF), clamped
// to (0, T]. A bid that never fails historically needs no checkpoints
// (F = T, the paper's disabled convention).
func Phi(g *model.Group, bid float64) float64 {
	mttf := g.MTTF(bid)
	T := float64(g.T)
	if math.IsInf(mttf, 1) {
		return T
	}
	f := math.Sqrt(2 * g.O * mttf)
	if f > T {
		return T
	}
	// Below half an hour, checkpoint overhead dwarfs the saved work — but
	// never clamp past T itself, or a very short run would silently flip
	// into the Interval >= T "no checkpoints" convention.
	minInterval := 0.5
	if T < minInterval {
		minInterval = T
	}
	if f < minInterval {
		f = minInterval
	}
	return f
}

// BidGrid returns the logarithmic bid-price grid for a group: H, H/2, ...
// H/2^(levels-1), descending. Low bids get dense coverage because the
// failure-rate function changes fastest there (Figure 4), which is the
// rationale for logarithmic search (Section 4.2.2).
func BidGrid(g *model.Group, levels int) []float64 {
	h := g.MaxBid()
	if h <= 0 {
		return nil
	}
	grid := make([]float64, 0, levels)
	for l := 0; l < levels; l++ {
		grid = append(grid, h/math.Pow(2, float64(l)))
	}
	return grid
}

// Result is a scored plan.
type Result struct {
	Plan model.Plan
	Est  model.Estimate
	// Evals counts cost-model evaluations performed — the optimization-
	// overhead metric of the κ parameter study: one per leaf the
	// spot-cost bounds admit, priced alone or counted with its cut subtree,
	// whether its walk stopped at the incumbent, its cost alone rejected
	// it or it went on to a full estimate with its time side. Pruned
	// counts the evaluations branch-and-bound skipped because a partial
	// plan's spot cost already exceeded the incumbent best.
	//
	// Determinism contract: Plan and Est are bit-identical with or
	// without pruning and reuse. Evals and Pruned are exactly
	// deterministic too — the one searcher drains the units in the fixed
	// dispatch order from the on-demand baseline, so the incumbent
	// trajectory is a pure function of the Config; two identical calls
	// return identical counters, which the determinism tests assert.
	// Config.Reuse never
	// touches the search: it can only move ranking evaluations (at most
	// GridLevels per reused group) from Evals into SavedEvals, so Pruned
	// and Evals+SavedEvals are the same with or without it.
	Evals  int
	Pruned int
	// SavedEvals counts ranking-stage standalone evaluations answered by
	// Config.Reuse's per-group memo for unchanged candidates instead of
	// the cost model (each would otherwise appear in Evals).
	SavedEvals int
	// ReusedGroups counts candidate groups whose prepared state
	// (failure distributions, bid grid, spot-cost floor) came from
	// Config.Reuse instead of being re-derived.
	ReusedGroups int
	// Explain is the decision trail, populated only when Config.Explain
	// was set (nil otherwise).
	Explain *Explain
}

// OptimizeContext runs the full SOMPI pipeline and returns the cheapest
// plan whose expected completion time meets the deadline. Defaults are
// applied to cfg's zero fields first, then validation (ErrInvalidConfig
// on out-of-range fields).
//
// If no spot plan is feasible the returned plan has no groups (pure
// on-demand). If not even on-demand fits, ErrDeadlineInfeasible is
// returned together with a fastest-fleet fallback plan.
//
// Cancelling ctx aborts the κ-subset search at the next evaluation
// checkpoint: OptimizeContext returns ctx.Err() together with a partial
// Result whose Evals/Pruned counters record how much of the search
// actually ran (the cancellation guarantee the service layer tests).
func OptimizeContext(ctx context.Context, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	// The decision trail and the span tree share one stage clock; when
	// neither is requested (no Explain, no collector in ctx) every
	// instrumentation point below is a nil-receiver no-op and the search
	// runs exactly as before, as TestDisabledPathZeroAlloc and
	// TestOptimizeSpans hold it.
	var ex *Explain
	var t0 time.Time
	if cfg.Explain {
		ex = &Explain{Kappa: cfg.Kappa, GridLevels: cfg.GridLevels, Workers: 1}
		t0 = time.Now()
	}
	ctx, osp := obs.StartSpan(ctx, "opt.optimize")
	sc := newStageClock(ctx, ex)
	finish := func(res Result, err error) (Result, error) {
		sc.close()
		if ex != nil {
			ex.Evals, ex.Pruned = res.Evals, res.Pruned
			ex.TotalNs = time.Since(t0).Nanoseconds()
			for _, gp := range res.Plan.Groups {
				key := gp.Group.Key.String()
				ex.Selected = append(ex.Selected, key)
				for i := range ex.Candidates {
					if ex.Candidates[i].Market == key {
						ex.Candidates[i].Selected = true
					}
				}
			}
			res.Explain = ex
		}
		if osp != nil {
			osp.AttrInt("evals", int64(res.Evals))
			osp.AttrInt("pruned", int64(res.Pruned))
			osp.AttrFloat("cost", res.Est.Cost)
			osp.Fail(err)
			osp.End()
		}
		return res, err
	}

	// Tight deadlines (the paper's 1.05x Baseline) leave less headroom
	// than the default 20% slack; relax the slack before giving up, so a
	// deadline that is feasible at all gets a plan.
	sc.begin("select_on_demand")
	od, err := selectRelaxed(cfg)
	if err != nil {
		fallback := FastestOnDemand(cfg.OnDemandTypes, cfg.Profile)
		plan := model.Plan{Recovery: fallback}
		return finish(Result{Plan: plan, Est: model.Evaluate(plan)}, err)
	}

	// Delta reuse: with a cache and a view whose window bounds are exact,
	// candidates whose (shard version, window, parameters) fingerprint is
	// unchanged skip Prewarm/Prepare below and pull their prepared state
	// from the previous optimization.
	rb := bindReuse(cfg)

	sc.begin("enumerate_candidates")
	groups, entries, err := buildGroups(cfg, ex, rb)
	if err != nil {
		return finish(Result{}, err)
	}
	best := Result{Plan: model.Plan{Recovery: od}}
	best.Est = model.Evaluate(best.Plan)
	evals := 1
	saved := 0
	reusedGroups := 0
	if ex != nil {
		ex.BaselineCost = best.Est.Cost
	}

	// Prepare every (group, bid-grid-point) pair once, with its
	// F = φ(P) interval; subsets below only combine prepared groups.
	// Prewarm fills each group's per-bid cache for the whole grid before
	// the search, which reads only the prepared groups. Cache hits arrive
	// with all of that already done; a miss still takes each bid's
	// first-passage sweep from the cache's per-shard passage tier, which
	// every profile on the same window shares, and fresh derivations are
	// registered for the next optimization.
	sc.begin("bid_grid")
	prepared := make([][]*model.PreparedGroup, len(groups))
	minSpot := make([]float64, len(groups))
	for i, g := range groups {
		if e := entries[i]; e != nil && e.prepared != nil {
			groups[i] = e.g
			prepared[i] = e.prepared
			minSpot[i] = e.minSpot
			reusedGroups++
			continue
		}
		grid := BidGrid(g, cfg.GridLevels)
		var src model.PassageSource
		if rb != nil {
			src = rb.passages(g.Key, g.Hist)
		}
		g.Prewarm(grid, src)
		minSpot[i] = math.Inf(1)
		for _, bid := range grid {
			interval := float64(g.T)
			if !cfg.DisableCheckpoints {
				interval = Phi(g, bid)
			}
			gp := model.GroupPlan{Group: g, Bid: bid, Interval: interval}
			pg := model.Prepare(gp)
			prepared[i] = append(prepared[i], pg)
			if c := pg.CostSpot(); c < minSpot[i] {
				minSpot[i] = c
			}
		}
		if e := entries[i]; e != nil {
			e.prepared = prepared[i]
			e.minSpot = minSpot[i]
			entries[i] = rb.cache.storeGroup(groupSlot{key: g.Key, profile: cfg.Profile.Name}, e)
		}
	}

	// Rank groups by their best standalone expected cost and keep the
	// strongest MaxGroups for the subset traversal. Standalone costs are
	// memoized per (group state, on-demand fleet) in the reuse cache —
	// the ranking, like everything else, is bit-identical either way.
	odk := odKeyFor(od)
	if len(groups) > cfg.MaxGroups {
		sc.begin("rank_candidates")
		// decIdx maps group index i to its entry in ex.Candidates (the
		// kept decisions, in enumeration order).
		var decIdx []int
		if ex != nil {
			for i := range ex.Candidates {
				if ex.Candidates[i].Kept {
					decIdx = append(decIdx, i)
				}
			}
		}
		type scored struct {
			idx   int
			score float64
		}
		var ev model.Evaluator
		single := make([]*model.PreparedGroup, 1)
		scores := make([]scored, len(groups))
		for i := range groups {
			best := math.Inf(1)
			cached := false
			if e := entries[i]; e != nil {
				if c, ok := rb.cache.standaloneCost(e, odk); ok {
					best = c
					cached = true
					saved += len(prepared[i])
				}
			}
			if !cached {
				for _, pg := range prepared[i] {
					single[0] = pg
					est := ev.EvaluatePrepared(single, od)
					evals++
					if est.Cost < best {
						best = est.Cost
					}
				}
				if e := entries[i]; e != nil {
					rb.cache.putStandalone(e, odk, best)
				}
			}
			scores[i] = scored{i, best}
			if ex != nil {
				ex.Candidates[decIdx[i]].StandaloneCost = best
			}
		}
		sort.Slice(scores, func(a, b int) bool { return scores[a].score < scores[b].score })
		keptGroups := make([]*model.Group, cfg.MaxGroups)
		keptPrepared := make([][]*model.PreparedGroup, cfg.MaxGroups)
		keptMinSpot := make([]float64, cfg.MaxGroups)
		for j := 0; j < cfg.MaxGroups; j++ {
			keptGroups[j] = groups[scores[j].idx]
			keptPrepared[j] = prepared[scores[j].idx]
			keptMinSpot[j] = minSpot[scores[j].idx]
		}
		if ex != nil {
			for rank := range scores {
				d := &ex.Candidates[decIdx[scores[rank].idx]]
				if rank < cfg.MaxGroups {
					d.Reason = fmt.Sprintf("standalone cost $%.2f ranked %d of %d, within the top-%d cutoff",
						scores[rank].score, rank+1, len(scores), cfg.MaxGroups)
				} else {
					d.Kept = false
					d.Reason = fmt.Sprintf("dominated: standalone cost $%.2f ranked %d of %d, below the top-%d cutoff",
						scores[rank].score, rank+1, len(scores), cfg.MaxGroups)
				}
			}
		}
		groups, prepared, minSpot = keptGroups, keptPrepared, keptMinSpot
	}

	kappa := cfg.Kappa
	if kappa > len(groups) {
		kappa = len(groups)
	}
	if len(groups) == 0 {
		best.Evals = evals
		best.SavedEvals = saved
		best.ReusedGroups = reusedGroups
		return finish(best, nil)
	}

	// Traverse every subset of up to κ circle groups (Section 4.4's
	// "traverse all of possible cases each with a specific combination"),
	// and within each subset every combination of grid bids. The work
	// units are the first groups: unit i is every subset whose lowest
	// group is i. One searcher drains them on the caller's goroutine in
	// ascending spot-cost floor of that group (dispatchOrder), so the
	// incumbent tightens while most of the space is still ahead, and the
	// incumbent trajectory — with it Evals and Pruned — is a pure function
	// of the Config. Each unit keeps its own best; the running best takes
	// a unit's plan when it is strictly cheaper, or equal and from a lower
	// first group, which is the recursive traversal's first-strictly-
	// better-wins tie-break (see searcher.searchBids for why pruning
	// cannot disturb the winner).
	order := dispatchOrder(minSpot)
	if ex != nil {
		ex.WorkUnits = len(order)
	}

	// Cancellation: a watcher goroutine flips stop when ctx is done, and
	// the searcher polls the flag on each bid-grid descent, so an
	// abandoned request stops burning CPU within roughly one cost-model
	// evaluation. Polling an atomic bool costs ~1ns against the ~µs
	// evaluation, which is why the flag is checked per grid point rather
	// than per unit.
	var stop atomic.Bool
	if done := ctx.Done(); done != nil {
		watch := make(chan struct{})
		defer close(watch)
		go func() {
			select {
			case <-done:
				stop.Store(true)
			case <-watch:
			}
		}()
	}

	s := &searcher{
		cfg:       cfg,
		od:        od,
		odT:       od.T,
		odRate:    od.Rate(),
		prepared:  prepared,
		minSpot:   minSpot,
		kappa:     kappa,
		baseline:  best.Est.Cost,
		incumbent: best.Est.Cost,
		stop:      &stop,
		subset:    make([]int, 0, kappa),
		pgs:       make([]*model.PreparedGroup, 0, kappa),
		stack:     model.NewPrefixStack(prepared, kappa-1),
		partial:   make([]float64, kappa+1),
		suffixMin: make([]float64, kappa+1),
		leaves:    make([]int, kappa+1),
	}
	if !cfg.DisablePruning {
		s.hulls = newSuffixHulls(sortedGrids(prepared))
		s.node = make([]int32, kappa+1)
	}
	sc.begin("subset_search")
	_, wsp := obs.StartSpan(ctx, "opt.search.worker")
	unitBest, found, bestFirst := Result{}, false, 0
	for _, first := range order {
		if !s.searchUnit(first) {
			continue
		}
		if c := s.best.Est.Cost; !found || c < unitBest.Est.Cost || c == unitBest.Est.Cost && first < bestFirst {
			unitBest, found, bestFirst = s.best, true, first
		}
	}
	if wsp != nil {
		wsp.AttrInt("units", int64(len(order)))
		wsp.AttrInt("evals", int64(s.evals))
		wsp.AttrInt("pruned", int64(s.pruned))
		wsp.End()
	}
	if found && unitBest.Est.Cost < best.Est.Cost {
		best = unitBest
	}
	best.Evals = evals + s.evals
	best.Pruned = s.pruned
	best.SavedEvals = saved
	best.ReusedGroups = reusedGroups
	if ex != nil {
		ex.SavedEvals = saved
	}
	if err := ctx.Err(); err != nil {
		// The merge above still ran: the partial Result documents how far
		// the search got (and may hold a usable incumbent plan), but a
		// cancelled search makes no optimality claim.
		return finish(best, err)
	}
	return finish(best, nil)
}

// selectRelaxed is the select_on_demand stage: Formulas 12–13 at the
// configured slack, then a halving slack-relaxation chain down to zero
// before giving up, so a deadline that is feasible at all gets a fleet.
func selectRelaxed(cfg Config) (model.OnDemand, error) {
	od, err := SelectOnDemand(cfg.OnDemandTypes, cfg.Profile, cfg.Deadline, cfg.Slack)
	for slack := cfg.Slack / 2; err != nil && slack > 0.005; slack /= 2 {
		od, err = SelectOnDemand(cfg.OnDemandTypes, cfg.Profile, cfg.Deadline, slack)
	}
	if err != nil {
		od, err = SelectOnDemand(cfg.OnDemandTypes, cfg.Profile, cfg.Deadline, 0)
	}
	return od, err
}

// searcher is the search state: scratch buffers, an allocation-free
// evaluator and the incumbent — the cheapest plan cost found so far,
// which only tightens — reused across every work unit.
type searcher struct {
	cfg       Config
	od        model.OnDemand
	prepared  [][]*model.PreparedGroup
	minSpot   []float64
	kappa     int
	baseline  float64
	incumbent float64
	stop      *atomic.Bool
	eval      model.Evaluator
	// odT and odRate are od.T and od.Rate(), read once instead of per leaf.
	odT, odRate float64

	subset []int
	pgs    []*model.PreparedGroup
	// stack mirrors pgs: the placed groups' survival product, which the
	// leaves below them price themselves against.
	stack *model.PrefixStack
	// hulls holds every group's grid sorted by spot cost and the lower
	// hulls cutSubtree bounds whole subtrees with; node[d] is the hulls
	// node of the subset's groups at depths >= d. Both are nil with
	// pruning off.
	hulls *suffixHulls
	node  []int32
	// hullCut is set while the leaf audit walks a subtree cutSubtree cut.
	hullCut bool
	// partial[d] is the spot-cost sum of the groups placed at depths
	// < d; suffixMin[d] is the cheapest possible spot cost of the groups
	// at depths >= d; leaves[d] is the number of bid combinations below
	// depth d. All three are per-subset precomputations for the
	// branch-and-bound cut.
	partial   []float64
	suffixMin []float64
	leaves    []int

	best   Result
	found  bool
	evals  int
	pruned int
}

// searchUnit traverses one work unit — every subset whose lowest group
// is first — in the exact order the serial recursion visits them, and
// reports whether the unit found a plan (s.best).
func (s *searcher) searchUnit(first int) bool {
	s.best, s.found = Result{}, false
	s.subset = append(s.subset[:0], first)
	s.extend(first + 1)
	return s.found
}

// extend evaluates the current subset's bid grid, then grows the subset
// with every index above start, mirroring the serial recursion.
func (s *searcher) extend(start int) {
	if s.stop.Load() {
		return
	}
	s.searchSubset()
	if len(s.subset) == s.kappa {
		return
	}
	for i := start; i < len(s.prepared); i++ {
		s.subset = append(s.subset, i)
		s.extend(i + 1)
		s.subset = s.subset[:len(s.subset)-1]
	}
}

// searchSubset enumerates every grid-bid combination for the current
// subset with branch-and-bound cuts.
func (s *searcher) searchSubset() {
	n := len(s.subset)
	// leaves[d]: bid combinations in depths d..n-1; suffixMin[d]: spot
	// cost floor of depths d..n-1.
	s.leaves[n] = 1
	s.suffixMin[n] = 0
	for d := n - 1; d >= 0; d-- {
		s.leaves[d] = s.leaves[d+1] * len(s.prepared[s.subset[d]])
		s.suffixMin[d] = s.suffixMin[d+1] + s.minSpot[s.subset[d]]
	}
	if !s.cfg.DisablePruning && s.suffixMin[0] > s.incumbent {
		// Even the cheapest bid choice for every member exceeds the
		// incumbent: skip the whole subset.
		s.pruned += s.leaves[0]
		return
	}
	if s.hulls != nil {
		s.node[n] = 0
		for d := n - 1; d >= 1; d-- {
			s.node[d] = s.hulls.child(s.node[d+1], s.subset[d])
		}
	}
	s.partial[0] = 0
	s.pgs = s.pgs[:0]
	s.searchBids(0)
}

// searchBids tries each grid bid of the subset's depth-th group: above the
// last depth it goes onto pgs and the prefix stack, at it each is a leaf.
// Above the last depth, cutSubtree may settle a choice's whole subtree.
func (s *searcher) searchBids(depth int) {
	last := depth == len(s.subset)-1
	var hull []hullPoint
	for _, pg := range s.prepared[s.subset[depth]] {
		if s.stop.Load() {
			return
		}
		bound := s.partial[depth] + pg.CostSpot() + s.suffixMin[depth+1]
		// A plan's cost is its groups' spot costs plus a non-negative
		// on-demand term, so bound is a true lower bound on every leaf
		// below this choice. Pruning only on strict > keeps equal-cost
		// plans alive: the eventual winner has cost equal to the final
		// incumbent, its bounds never strictly exceed a value the
		// incumbent (which only tightens) held at any earlier time, so
		// the winning leaf is always evaluated — which is what makes the
		// result independent of pruning.
		if !s.cfg.DisablePruning && bound > s.incumbent {
			s.pruned += s.leaves[depth+1]
			continue
		}
		if last {
			s.leaf(pg)
			continue
		}
		if s.hulls != nil {
			if hull == nil {
				hull = s.hulls.hull(s.node[depth+1])
			}
			if s.cutSubtree(depth, pg, hull) {
				continue
			}
		}
		s.descend(depth, pg)
	}
}

// descend places pg at depth and searches the depths below it.
func (s *searcher) descend(depth int, pg *model.PreparedGroup) {
	s.partial[depth+1] = s.partial[depth] + pg.CostSpot()
	s.pgs = append(s.pgs, pg)
	s.stack.Push(pg)
	s.searchBids(depth + 1)
	s.stack.Pop()
	s.pgs = s.pgs[:len(s.pgs)-1]
}

// cutSubtree reports whether every leaf below pg, placed at depth, is one
// its own LeafBound cuts at the incumbent, and if so counts the subtree
// as its walk would have counted it. With y the subtree's E[Ratio]
// factor, each leaf's bound is its placed spot cost plus Σ cs + y·Π e
// over the groups below, deflated; the minimum of that over the suffix
// hull bounds them all, and loopDeflate covers both the leaf's deflation
// and the different association. No leaf of a cut subtree could have
// been accepted, so the incumbent, the unit's best and the plan do not
// move, and count adds to Pruned and Evals what the walk's spot-cost
// tests would have added.
func (s *searcher) cutSubtree(depth int, pg *model.PreparedGroup, hull []hullPoint) bool {
	y := s.stack.EProd() * pg.ERatio() * s.odT * s.odRate
	part := s.partial[depth] + pg.CostSpot()
	if !((part+hullMin(hull, y))*loopDeflate > s.incumbent) {
		return false
	}
	s.count(depth+1, part)
	if leafAudit != nil {
		// The audit sees each leaf with the state the walk would have
		// shown it; the counts stay the bulk ones. A nested cut inside
		// the walk leaves hullCut as it found it.
		evals, pruned, cut := s.evals, s.pruned, s.hullCut
		s.hullCut = true
		s.descend(depth, pg)
		s.evals, s.pruned, s.hullCut = evals, pruned, cut
	}
	return true
}

// count adds to Evals and Pruned what the walk of depths k and below,
// under placed spot cost p, adds with the incumbent held where it is:
// at an interior depth a choice whose p + cs + suffixMin is above the
// incumbent prunes its leaves, at the last depth a leaf whose p + cs is
// above it is pruned and any other is evaluated. The grids are sorted by
// spot cost and IEEE addition is monotone, so the passing choices of a
// level are a prefix: the first failure settles the rest of the level,
// and at the last two levels the passing leaves under each choice only
// shrink as the choice's cost grows.
func (s *searcher) count(k int, p float64) {
	last := len(s.subset) - 1
	grid := s.hulls.grids[s.subset[k]]
	if k == last {
		s.countLeaves(grid, p, len(grid))
		return
	}
	var leaves []hullPoint
	if k == last-1 {
		leaves = s.hulls.grids[s.subset[last]]
	}
	j := len(leaves)
	for i, c := range grid {
		q := p + c.cs
		if q+s.suffixMin[k+1] > s.incumbent {
			s.pruned += (len(grid) - i) * s.leaves[k+1]
			return
		}
		if leaves == nil {
			s.count(k+1, q)
			continue
		}
		j = s.countLeaves(leaves, q, j)
	}
}

// countLeaves counts the last level's leaves, sorted by spot cost, under
// placed spot cost p, knowing that at most the first j can pass, and
// returns how many did.
func (s *searcher) countLeaves(leaves []hullPoint, p float64, j int) int {
	for j > 0 && p+leaves[j-1].cs > s.incumbent {
		j--
	}
	s.evals += j
	s.pruned += len(leaves) - j
	return j
}

// leaf scores the plan made of the placed groups plus last. Acceptance
// needs cost below the unit's best, the deadline met and MaxAllFail
// passed; cost settles most leaves, so it is priced first, against the
// prefix stack, and only a leaf that passes pays for the full estimate —
// which, like the one the Result carries, is the reference evaluator's.
// A leaf whose O(1) lower bound is already above the incumbent is
// cut before the walk, and the walk stops at it (DESIGN §6): a cut leaf
// counts in Evals but never meets the unit-local acceptance test.
func (s *searcher) leaf(last *model.PreparedGroup) {
	s.evals++
	limit := math.Inf(1)
	if !s.cfg.DisablePruning {
		limit = s.incumbent
	}
	if bound := s.stack.LeafBound(last, s.odT, s.odRate); bound > limit {
		if leafAudit != nil {
			leafAudit(s, last, bound, limit, false)
		}
		return
	}
	cost, within := s.stack.LeafCost(last, s.odT, s.odRate, limit)
	if leafAudit != nil {
		leafAudit(s, last, cost, limit, within)
	}
	if !within || !(cost < s.localBound()) {
		return
	}
	pgs := append(s.pgs, last)
	est := s.eval.EvaluatePrepared(pgs, s.od)
	if s.cfg.MaxAllFail > 0 && est.PAllFail > s.cfg.MaxAllFail {
		return
	}
	if est.Time <= s.cfg.Deadline && est.Cost < s.localBound() {
		gps := make([]model.GroupPlan, len(pgs))
		for i, pg := range pgs {
			gps[i] = pg.GP
		}
		s.best = Result{Plan: model.Plan{Groups: gps, Recovery: s.od}, Est: est}
		s.found = true
		if est.Cost < s.incumbent {
			s.incumbent = est.Cost
		}
	}
}

// leafAudit is a test-only observer of every leaf: the limit it was
// priced against, and the cost and within the prefix stack returned for
// it — for a leaf cut by its bound, the bound and false. It sees the
// leaves of a subtree cutSubtree cut too, with searcher.hullCut set.
// Nothing outside the package's tests sets it.
var leafAudit func(s *searcher, last *model.PreparedGroup, cost, limit float64, within bool)

// localBound is the acceptance threshold for the current unit: the
// unit's own best if it has one, else the pure-on-demand baseline.
// Acceptance must not consult the incumbent — an equal-cost plan from a
// unit dispatched earlier would otherwise block this one, and the
// tie-break would follow the dispatch order — so the tie-break comes
// from per-unit bests merged in canonical order.
func (s *searcher) localBound() float64 {
	if s.found {
		return s.best.Est.Cost
	}
	return s.baseline
}

// buildGroups constructs the candidate circle groups. A candidate naming
// an instance type outside the market's catalog, or a market the trace
// set does not cover, is a caller error (typically a stale Candidates
// list) and is reported as such rather than panicking. With ex non-nil
// every candidate's keep/reject decision lands in the trail.
//
// With rb non-nil, each kept group gets a reuse entry alongside it: an
// existing one when the candidate's state fingerprint matches the cache
// (entry.prepared already derived), or a fresh unregistered one the
// bid_grid stage fills and stores. entries[i] is nil iff reuse is off.
func buildGroups(cfg Config, ex *Explain, rb *reuseBinding) ([]*model.Group, []*reuseEntry, error) {
	groups := make([]*model.Group, 0, len(cfg.Candidates))
	entries := make([]*reuseEntry, 0, len(cfg.Candidates))
	for _, key := range cfg.Candidates {
		it, ok := cfg.Market.Catalog().ByName(key.Type)
		if !ok {
			return nil, nil, fmt.Errorf("%w: candidate %v not in catalog", ErrNoCandidates, key)
		}
		tr, ok := cfg.Market.TraceFor(key)
		if !ok {
			return nil, nil, fmt.Errorf("%w: candidate %v has no price history in the market", ErrNoCandidates, key)
		}
		g := model.NewGroup(cfg.Profile, it, key.Zone, tr)
		// A group that cannot finish before the deadline even alone and
		// failure-free can still contribute checkpoints, but in practice
		// it only burns money; prune it like the paper's implementation.
		kept := float64(g.T) <= cfg.Deadline
		if kept {
			groups = append(groups, g)
			var entry *reuseEntry
			if rb != nil {
				st := rb.stateFor(cfg, key, g)
				if e, ok := rb.cache.lookupGroup(groupSlot{key: key, profile: cfg.Profile.Name}, st); ok {
					entry = e
				} else {
					entry = &reuseEntry{state: st, g: g}
				}
			}
			entries = append(entries, entry)
		}
		if ex != nil {
			d := CandidateDecision{
				Market:          g.Key.String(),
				Kept:            kept,
				StandaloneHours: float64(g.T),
			}
			if kept {
				d.Reason = "entered the κ-subset search"
			} else {
				d.Reason = fmt.Sprintf("standalone completion time %.1fh exceeds the %.1fh deadline even failure-free",
					float64(g.T), cfg.Deadline)
			}
			ex.Candidates = append(ex.Candidates, d)
		}
	}
	return groups, entries, nil
}
