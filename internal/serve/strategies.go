package serve

import (
	"net/http"

	"sompi/internal/app"
	"sompi/internal/opt"
	"sompi/internal/strategy"
)

// handleStrategies serves the strategy registry with parameter schemas
// and the scenario catalog. The set is fixed at init time — it doubles
// as the bound on every strategy-labeled metric family.
func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	resp := StrategiesResponse{Default: strategy.Names()[0]}
	for _, d := range strategy.List() {
		resp.Strategies = append(resp.Strategies, StrategyInfo{
			Name:    d.Name,
			Summary: d.Summary,
			Params:  d.Params,
			Default: d.Name == resp.Default,
		})
	}
	for _, sc := range strategy.Scenarios() {
		resp.Scenarios = append(resp.Scenarios, ScenarioInfo{Name: sc.Name, Summary: sc.Summary})
	}
	writeJSON(w, http.StatusOK, resp)
}

// effectiveStrategyParams merges a plan request into one strategy
// parameter map. For "sompi" the top-level optimizer knobs seed the map
// — the request shapes that always worked keep working — and
// strategy_params overlay them; every other strategy reads
// strategy_params alone.
func effectiveStrategyParams(req PlanRequest) map[string]float64 {
	if req.Strategy != "sompi" {
		return req.StrategyParams
	}
	p := make(map[string]float64, 8+len(req.StrategyParams))
	if req.Kappa != 0 {
		p["kappa"] = float64(req.Kappa)
	}
	if req.GridLevels != 0 {
		p["grid_levels"] = float64(req.GridLevels)
	}
	if req.MaxGroups != 0 {
		p["max_groups"] = float64(req.MaxGroups)
	}
	if req.Workers != 0 {
		p["workers"] = float64(req.Workers)
	}
	if req.Slack != 0 {
		p["slack"] = req.Slack
	}
	if req.MaxAllFail != 0 {
		p["max_all_fail"] = req.MaxAllFail
	}
	if req.DisableCheckpoints {
		p["disable_checkpoints"] = 1
	}
	if req.DisablePruning {
		p["disable_pruning"] = 1
	}
	for k, v := range req.StrategyParams {
		p[k] = v
	}
	return p
}

// planner resolves a request to what plans it, for /v1/plan and for
// sessions alike. The sompi family — no strategy or "sompi" — comes back
// as the opt.Config of the default optimizer loop with a nil strategy;
// for "sompi" the config carries the effective knobs validated through
// the registry, so named-sompi plans and sessions get the same warm
// starts, committed-window MaxAllFail and single-flight dedup as
// untagged ones. Every other name comes back as its registry strategy.
// Market and Candidates are left to the caller.
func planner(req PlanRequest, profile app.Profile) (opt.Config, strategy.Strategy, error) {
	cfg := req.Config(profile, nil)
	if req.Strategy == "" {
		return cfg, nil, nil
	}
	st, err := strategy.New(req.Strategy, effectiveStrategyParams(req))
	if err != nil {
		return opt.Config{}, nil, err
	}
	so, ok := st.(*strategy.SOMPI)
	if !ok {
		return cfg, st, nil
	}
	knobs := so.Config
	knobs.Profile, knobs.Deadline = profile, req.DeadlineHours
	return knobs, nil, nil
}
