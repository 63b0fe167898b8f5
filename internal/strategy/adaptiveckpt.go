package strategy

import (
	"context"
	"fmt"
	"math"

	"sompi/internal/cloud"
	"sompi/internal/model"
	"sompi/internal/opt"
)

// AdaptiveCkptParams shape the "adaptive-ckpt" strategy.
type AdaptiveCkptParams struct {
	// Levels is the cadence search radius: each group tries intervals
	// φ·2^j for j in [-Levels, +Levels] (φ = the Young/Daly interval at
	// the group's bid) and keeps the joint-cost minimizer.
	Levels int
	// Kappa, GridLevels and MaxGroups parameterize the underlying
	// κ-subset search that picks the groups; zero = paper defaults.
	Kappa      int
	GridLevels int
	MaxGroups  int
}

// AdaptiveCkpt starts from the sompi plan and then re-tunes every
// group's checkpoint cadence per group: Young/Daly's φ(P) balances
// checkpoint overhead against one group's own MTTF, but in a replicated
// plan a group backed by healthy siblings can afford sparser
// checkpoints (its failures rarely decide the run) while the plan's
// last line of defense wants denser ones. A deterministic
// coordinate-descent pass per group over a geometric cadence grid,
// scored by the joint cost model, captures exactly that coupling.
type AdaptiveCkpt struct {
	hosted
	Params AdaptiveCkptParams
}

var adaptiveCkptSpecs = []ParamSpec{
	{Name: "levels", Type: "int", Default: 2, Min: 1, Max: 4, Doc: "cadence search radius: intervals φ·2^j, j ∈ [-levels, levels]"},
	{Name: "kappa", Type: "int", Default: 0, Min: 0, Max: 8, Doc: "circle groups per plan (0 = paper default 4)"},
	{Name: "grid_levels", Type: "int", Default: 0, Min: 0, Max: 12, Doc: "logarithmic bid-grid levels (0 = default 6)"},
	{Name: "max_groups", Type: "int", Default: 0, Min: 0, Max: 16, Doc: "candidate groups entering the subset search (0 = default 8)"},
}

func init() {
	register(Descriptor{
		Name:    "adaptive-ckpt",
		Summary: "sompi plan with per-group checkpoint cadence re-tuned against the joint cost model",
		Params:  adaptiveCkptSpecs,
		New: func(params map[string]float64) (Strategy, error) {
			p, err := decodeParams("adaptive-ckpt", adaptiveCkptSpecs, params)
			if err != nil {
				return nil, err
			}
			return &AdaptiveCkpt{Params: AdaptiveCkptParams{
				Levels:     int(p["levels"]),
				Kappa:      int(p["kappa"]),
				GridLevels: int(p["grid_levels"]),
				MaxGroups:  int(p["max_groups"]),
			}}, nil
		},
	})
}

// Name implements Strategy.
func (s *AdaptiveCkpt) Name() string { return "adaptive-ckpt" }

// Plan implements Strategy.
func (s *AdaptiveCkpt) Plan(ctx context.Context, view cloud.MarketView, w Workload, d Deadline) (Plan, *Explain, error) {
	res, err := opt.OptimizeContext(ctx, opt.Config{
		Profile:    w.Profile,
		Market:     view,
		Deadline:   d.Hours,
		Candidates: s.candidates,
		Kappa:      s.Params.Kappa,
		GridLevels: s.Params.GridLevels,
		MaxGroups:  s.Params.MaxGroups,
		// One search worker: the plan is the same at any count, but the
		// served evals/pruned counters are only reproducible at a fixed
		// one, and this strategy has no workers param to pin it.
		Workers: 1,
		Reuse:   s.reuse,
	})
	if err != nil {
		return Plan{}, nil, err
	}
	plan := res.Plan
	ex := &Explain{}

	// One deterministic coordinate-descent pass, group by group in plan
	// order: try the geometric cadence grid around the group's current
	// interval's φ anchor, keep the joint-cost minimizer that stays
	// deadline-feasible. Later groups see earlier groups' tuned cadence.
	for i := range plan.Groups {
		gp := plan.Groups[i]
		anchor := opt.Phi(gp.Group, gp.Bid)
		T := float64(gp.Group.T)
		bestInterval := gp.Interval
		best := model.Evaluate(plan)
		for j := -s.Params.Levels; j <= s.Params.Levels; j++ {
			interval := anchor * math.Pow(2, float64(j))
			// The replayer treats interval ≥ T as "never checkpoint"; keep
			// the candidate grid inside meaningful cadences.
			if interval > T {
				interval = T
			}
			if interval < math.Min(0.5, T) {
				interval = math.Min(0.5, T)
			}
			if interval == bestInterval {
				continue
			}
			plan.Groups[i].Interval = interval
			est := model.Evaluate(plan)
			if est.Time <= d.Hours && est.Cost < best.Cost {
				best, bestInterval = est, interval
			}
		}
		plan.Groups[i].Interval = bestInterval
		if bestInterval != gp.Interval {
			ex.Notes = append(ex.Notes, fmt.Sprintf("group %s cadence %.2fh → %.2fh (×%.2g of φ)",
				gp.Group.Key, gp.Interval, bestInterval, bestInterval/anchor))
		} else {
			ex.Notes = append(ex.Notes, fmt.Sprintf("group %s keeps φ cadence %.2fh", gp.Group.Key, gp.Interval))
		}
	}

	return Plan{
		Model:      plan,
		Est:        model.Evaluate(plan),
		Evals:      res.Evals,
		Pruned:     res.Pruned,
		SavedEvals: res.SavedEvals,
	}, ex, nil
}
