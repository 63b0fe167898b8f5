// Package strategy turns the planner from one algorithm into a pluggable
// subsystem: a Strategy plans one application run against a market view,
// and a name-keyed registry of typed-parameter strategies lets callers —
// the v1 facade, the sompid service, the tournament runner — select a
// policy by name.
//
// The paper's own policy family (replicated execution with checkpoints
// and F = φ(P)) is registered as "sompi" and stays the default: its plans
// are byte-identical to a direct opt.OptimizeContext call with the same
// knobs. The rivals named in the paper's related work ride alongside it:
// "portfolio" contract bidding (a mix of (spot market, bid-price) options
// with an on-demand backstop, arXiv:1811.12901 style), "noft" ride-out
// provisioning (no checkpoint overhead, arXiv:2003.13846 style), and
// "adaptive-ckpt" per-group checkpoint cadence re-tuned against the joint
// cost model instead of Young/Daly alone.
package strategy

import (
	"context"
	"errors"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/model"
	"sompi/internal/opt"
)

// ErrUnknownStrategy reports a strategy name absent from the registry.
// The sompid service maps it to a 400 in the v1 error vocabulary.
var ErrUnknownStrategy = errors.New("strategy: unknown strategy")

// DefaultHistory is how many hours of trailing price history strategies
// train on when the caller does not say (see baselines.History).
const DefaultHistory = 96

// Workload is the application a strategy plans for.
type Workload struct {
	// Profile is the TAU-style resource profile of the application (or of
	// its residual work, when re-planning mid-run).
	Profile app.Profile
}

// Deadline is the completion constraint, relative to planning time.
type Deadline struct {
	// Hours is the wall-clock budget for the remaining work.
	Hours float64
}

// Plan is a strategy's answer: an executable hybrid plan plus the cost
// model's evaluation of it and — for strategies that run the κ-subset
// search — the search-effort counters.
type Plan struct {
	// Model is the executable spot/on-demand plan.
	Model model.Plan
	// Est is the analytic cost model's evaluation of Model.
	Est model.Estimate
	// Evals, Pruned and SavedEvals report optimizer search effort; zero
	// for strategies that never enter the κ-subset search.
	Evals, Pruned, SavedEvals int
}

// Explain is a strategy's decision trail.
type Explain struct {
	// Notes are strategy-level decisions in order (which markets were
	// picked for which contract rung, which cadence multiplier won, ...).
	Notes []string `json:"notes,omitempty"`
	// Opt is the optimizer's own trail, present when the strategy ran the
	// κ-subset search with explanation enabled.
	Opt *opt.Explain `json:"opt,omitempty"`
}

// Strategy plans one application run against the market history in view.
// Implementations must read view only (no side effects), must not peek
// past view's frontier, and must be deterministic: the same view,
// workload and deadline always produce the same plan.
type Strategy interface {
	// Name is the registry name the strategy was built under.
	Name() string
	// Plan builds an executable plan for w completing within d, training
	// on the price history in view. The returned Explain may be nil when
	// the strategy has nothing beyond the plan to say.
	Plan(ctx context.Context, view cloud.MarketView, w Workload, d Deadline) (Plan, *Explain, error)
}

// hosted carries the host-side plumbing a serving layer may hand a
// strategy: a candidate-market restriction and the optimizer's
// cross-optimization reuse cache. Strategies embed it; Configure fills
// it. Neither field changes what plan a strategy picks for a given
// candidate universe — Reuse is a pure memoization.
type hosted struct {
	candidates []cloud.MarketKey
	reuse      *opt.ReuseCache
}

func (h *hosted) setHost(candidates []cloud.MarketKey, reuse *opt.ReuseCache) {
	h.candidates = candidates
	h.reuse = reuse
}

// keysOf reports the strategy's candidate universe over view: the
// configured restriction, or every key of the view.
func (h *hosted) keysOf(view cloud.MarketView) []cloud.MarketKey {
	if len(h.candidates) > 0 {
		return h.candidates
	}
	return view.Keys()
}

// hostAware is the optional interface Configure drives.
type hostAware interface {
	setHost(candidates []cloud.MarketKey, reuse *opt.ReuseCache)
}

// Configure hands host-side plumbing to strategies that accept it: a
// candidate (type, zone) restriction and a shared optimizer reuse cache.
// Strategies without host plumbing ignore the call.
func Configure(s Strategy, candidates []cloud.MarketKey, reuse *opt.ReuseCache) {
	if h, ok := s.(hostAware); ok {
		h.setHost(candidates, reuse)
	}
}
