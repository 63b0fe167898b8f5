package opt

import (
	"sompi/internal/model"
)

// WarmBound re-evaluates a previous plan under cfg's current market and
// returns its expected cost as an admissible Config.InitialIncumbent
// seed for the next optimization. The bound is admissible by witness:
// it is the achieved cost of a concrete feasible plan, so the true
// optimum cannot exceed it (when the previous plan's bids are still on
// the current bid grid; if price maxima moved the grid, the seed may
// fall below the new grid's optimum — OptimizeContext detects that and
// re-runs cold, so correctness never depends on it).
//
// ok is false when the previous plan cannot be priced or is no longer
// feasible under cfg — a group's market left the catalog or trace set,
// its deadline-feasible window closed, the re-evaluated completion time
// misses cfg.Deadline, or the all-fail probability exceeds
// cfg.MaxAllFail. Callers then simply run cold.
func WarmBound(cfg Config, prev model.Plan) (cost float64, ok bool) {
	cfg = cfg.withDefaults()
	if cfg.Market == nil || len(prev.Groups) == 0 || cfg.validate() != nil {
		return 0, false
	}
	od, err := selectRelaxed(cfg)
	if err != nil {
		return 0, false
	}
	rb := bindReuse(cfg)
	pgs := make([]*model.PreparedGroup, 0, len(prev.Groups))
	for _, gp := range prev.Groups {
		it, found := cfg.Market.Catalog().ByName(gp.Group.Key.Type)
		if !found {
			return 0, false
		}
		tr, found := cfg.Market.TraceFor(gp.Group.Key)
		if !found {
			return 0, false
		}
		// Rebuild the group against the current market and profile — the
		// residual workload and fresh price history both change the
		// failure distributions — keeping only the bid choice from the
		// previous plan, with its interval re-derived through F = φ(P)
		// exactly as the search would.
		g := model.NewGroup(cfg.Profile, it, gp.Group.Key.Zone, tr)
		if float64(g.T) > cfg.Deadline || gp.Bid <= 0 {
			return 0, false
		}
		// Take the bid's sweep from the passage tier the search shares,
		// not one cold sweep each for Phi's MTTF and Prepare's Dist.
		if rb != nil {
			g.Prewarm([]float64{gp.Bid}, rb.passages(g.Key, tr))
		}
		interval := float64(g.T)
		if !cfg.DisableCheckpoints {
			interval = Phi(g, gp.Bid)
		}
		pgs = append(pgs, model.Prepare(model.GroupPlan{Group: g, Bid: gp.Bid, Interval: interval}))
	}
	est := model.EvaluatePrepared(pgs, od)
	if est.Time > cfg.Deadline {
		return 0, false
	}
	if cfg.MaxAllFail > 0 && est.PAllFail > cfg.MaxAllFail {
		return 0, false
	}
	return est.Cost, true
}
