package strategy

import (
	"context"

	"sompi/internal/cloud"
	"sompi/internal/opt"
)

// SOMPI is the paper's policy as a registry strategy: replicated spot
// execution with checkpoints, F = φ(P), κ-subset search over circle
// groups with an on-demand backstop. It is the registry default.
type SOMPI struct {
	hosted
	// Config holds the optimizer knobs. Zero values take the paper's
	// defaults, exactly as in opt.Config itself, which is what keeps a
	// parameterless "sompi" plan byte-identical to a direct
	// opt.OptimizeContext call. Plan fills in the profile, market,
	// deadline, candidates and reuse cache.
	Config opt.Config
}

var sompiSpecs = []ParamSpec{
	{Name: "kappa", Type: "int", Default: 0, Min: 0, Max: 8, Doc: "circle groups per plan (0 = paper default 4)"},
	{Name: "grid_levels", Type: "int", Default: 0, Min: 0, Max: 12, Doc: "logarithmic bid-grid levels (0 = default 6)"},
	{Name: "max_groups", Type: "int", Default: 0, Min: 0, Max: 16, Doc: "candidate groups entering the subset search (0 = default 8)"},
	{Name: "workers", Type: "int", Default: 0, Min: 0, Max: 256, Doc: "search workers (0 = GOMAXPROCS; plans identical at any count)"},
	{Name: "slack", Type: "float", Default: 0, Min: 0, Max: 0.9, Doc: "deadline fraction reserved for checkpoint/recovery overhead (0 = default 0.2)"},
	{Name: "max_all_fail", Type: "float", Default: 0, Min: 0, Max: 1, Doc: "cap on P(all groups fail) (0 = unconstrained)"},
	{Name: "disable_checkpoints", Type: "bool", Default: 0, Min: 0, Max: 1, Doc: "run groups bare (w/o-CK ablation)"},
	{Name: "disable_pruning", Type: "bool", Default: 0, Min: 0, Max: 1, Doc: "exhaustive search without branch-and-bound"},
}

func init() {
	register(Descriptor{
		Name:    "sompi",
		Summary: "the paper's optimizer: replicated spot groups + checkpoints + on-demand backstop (default)",
		Params:  sompiSpecs,
		New: func(params map[string]float64) (Strategy, error) {
			p, err := decodeParams("sompi", sompiSpecs, params)
			if err != nil {
				return nil, err
			}
			return &SOMPI{Config: opt.Config{
				Kappa:              int(p["kappa"]),
				GridLevels:         int(p["grid_levels"]),
				MaxGroups:          int(p["max_groups"]),
				Workers:            int(p["workers"]),
				Slack:              p["slack"],
				MaxAllFail:         p["max_all_fail"],
				DisableCheckpoints: p["disable_checkpoints"] != 0,
				DisablePruning:     p["disable_pruning"] != 0,
			}}, nil
		},
	})
}

// Name implements Strategy.
func (s *SOMPI) Name() string { return "sompi" }

// config assembles the optimizer configuration for one planning call.
func (s *SOMPI) config(view cloud.MarketView, w Workload, d Deadline) opt.Config {
	cfg := s.Config
	cfg.Profile, cfg.Market, cfg.Deadline = w.Profile, view, d.Hours
	cfg.Candidates, cfg.Reuse = s.candidates, s.reuse
	return cfg
}

// Plan implements Strategy by delegating to the κ-subset search. The
// mapping from params to opt.Config is total and adds nothing, so the
// plan is byte-identical to opt.OptimizeContext with the same knobs.
func (s *SOMPI) Plan(ctx context.Context, view cloud.MarketView, w Workload, d Deadline) (Plan, *Explain, error) {
	res, err := opt.OptimizeContext(ctx, s.config(view, w, d))
	out := Plan{
		Model:       res.Plan,
		Est:         res.Est,
		Evals:       res.Evals,
		Pruned:      res.Pruned,
		SavedEvals:  res.SavedEvals,
		WarmRetried: res.WarmRetried,
	}
	var ex *Explain
	if res.Explain != nil {
		ex = &Explain{Opt: res.Explain}
	}
	return out, ex, err
}
