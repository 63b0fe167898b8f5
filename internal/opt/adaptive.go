package opt

import (
	"context"
	"math"

	"sompi/internal/model"
	"sompi/internal/replay"
)

// Adaptive is the paper's Algorithm 1 as a replay strategy: every
// optimization window of T_m hours it re-estimates the failure-rate
// functions from the latest price history, re-optimizes the residual work,
// executes one window of the resulting hybrid plan, and checkpoints the
// final state as the next start point. If at any window boundary the
// deadline can no longer be met on spot instances, the rest of the
// application runs on the fastest on-demand fleet.
type Adaptive struct {
	// Base parameterizes each per-window optimization. Base.Market must be
	// the full market (the strategy windows it for training itself);
	// Base.Deadline is ignored (the runner's deadline is used).
	Base Config
	// Window is T_m in hours; zero means DefaultWindow.
	Window float64
	// History is how many hours of price history each re-optimization
	// trains on; zero means 96 (see baselines.History).
	History float64
	// Label overrides the reported name (default "SOMPI").
	Label string
}

var _ replay.Strategy = (*Adaptive)(nil)

// Name implements replay.Strategy.
func (a *Adaptive) Name() string {
	if a.Label != "" {
		return a.Label
	}
	return "SOMPI"
}

// Run implements replay.Strategy, executing Algorithm 1 from absolute
// market hour start. The per-window state (progress, elapsed wall clock,
// accumulated cost) is carried by a replay.Session — the same vehicle the
// planner service uses — so the in-process and served adaptive loops stay
// behaviourally identical.
func (a *Adaptive) Run(r *replay.Runner, deadline, start float64) (replay.Outcome, error) {
	window := a.Window
	if window <= 0 {
		window = DefaultWindow
	}
	history := a.History
	if history <= 0 {
		history = 96
	}
	base := a.Base
	base.Profile = r.Profile
	base = base.withDefaults()

	sess := replay.NewSession(r, deadline, start)
	maxWindows := int(deadline/window) + 32 // hard stop against livelock

	for w := 0; w < maxWindows && sess.Progress < 1; w++ {
		leftover := sess.Remaining()
		resid := r.Profile.Scale(1 - sess.Progress)
		fastest := FastestOnDemand(base.OnDemandTypes, resid)

		// Train on the trailing History hours only (line 17: "update the
		// spot price trace with the spot price history in this window").
		trainStart := sess.Now() - history
		if trainStart < 0 {
			trainStart = 0
		}
		cfg := base
		cfg.Profile = resid
		cfg.Market = base.Market.Window(trainStart, sess.Now()-trainStart)
		cfg.Deadline = leftover

		// Algorithm 1 line 7: if the deadline cannot be satisfied, run the
		// remainder on on-demand instances. "Satisfied" is the model's
		// E[Time] <= leftover feasibility.
		res, err := OptimizeContext(context.Background(), cfg)
		if err != nil || leftover <= 0 {
			sess.Advance(model.Plan{Recovery: fastest}, math.Inf(1))
			return sess.Outcome(), nil
		}
		if len(res.Plan.Groups) == 0 {
			// The optimizer's best feasible plan is pure on-demand.
			sess.Advance(res.Plan, math.Inf(1))
			return sess.Outcome(), nil
		}

		// While a completely fruitless window would still leave time to
		// finish on the fastest on-demand fleet, explore one window and
		// re-plan. Once the deadline is too close for that guarantee,
		// commit to the current plan: run it to completion or to the
		// death of every group, then recover on-demand — the tail risk
		// the paper's tight-deadline runs accept ("very near deadline").
		safeWindow := leftover - fastest.T*1.02
		if safeWindow < 2 {
			// Re-optimize with a survival constraint: in the committed
			// window, losing every group means an on-demand recovery that
			// blows the deadline, so only high-confidence plans qualify.
			commitCfg := cfg
			commitCfg.MaxAllFail = 0.1
			if committed, err := OptimizeContext(context.Background(), commitCfg); err == nil && len(committed.Plan.Groups) > 0 {
				res = committed
			}
			if o := sess.Advance(res.Plan, math.Inf(1)); o.Completed {
				return sess.Outcome(), nil
			}
			break // all groups died: on-demand recovery below
		}

		o := sess.Advance(res.Plan, math.Min(window, safeWindow))
		if o.Completed {
			return sess.Outcome(), nil
		}
		if o.Hours <= 0 {
			break // no wall-clock motion: bail out below
		}
	}

	if sess.Progress < 1 {
		resid := r.Profile.Scale(1 - sess.Progress)
		fastest := FastestOnDemand(base.OnDemandTypes, resid)
		sess.Advance(model.Plan{Recovery: fastest}, math.Inf(1))
	}
	return sess.Outcome(), nil
}

// OneShot is SOMPI without update maintenance (the paper's w/o-MT
// ablation): optimize once from the history before the start point, then
// replay that single plan to completion.
type OneShot struct {
	Base    Config
	History float64
	Label   string
}

var _ replay.Strategy = (*OneShot)(nil)

// Name implements replay.Strategy.
func (s *OneShot) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "w/o-MT"
}

// Run implements replay.Strategy.
func (s *OneShot) Run(r *replay.Runner, deadline, start float64) (replay.Outcome, error) {
	history := s.History
	if history <= 0 {
		history = 96
	}
	cfg := s.Base
	cfg.Profile = r.Profile
	trainStart := math.Max(0, start-history)
	cfg.Market = s.Base.Market.Window(trainStart, start-trainStart)
	cfg.Deadline = deadline
	res, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		return replay.Outcome{}, err
	}
	return r.RunToCompletion(res.Plan, start), nil
}
