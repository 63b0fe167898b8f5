package serve

import (
	"net/http"

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

// sessionStrategy resolves a request's strategy for session re-planning.
// A nil strategy means the default Algorithm-1 loop; a "sompi" selection
// folds its effective knobs into base and then uses that same loop, so
// named-sompi sessions keep the warm-start and committed-window
// machinery (and its bit-identity guarantees) of untagged ones.
func sessionStrategy(req PlanRequest, base *opt.Config) (strategy.Strategy, error) {
	if req.Strategy == "" {
		return nil, nil
	}
	st, err := strategy.New(req.Strategy, effectiveStrategyParams(req))
	if err != nil {
		return nil, err
	}
	if so, ok := st.(*strategy.SOMPI); ok {
		base.Kappa = so.Params.Kappa
		base.GridLevels = so.Params.GridLevels
		base.MaxGroups = so.Params.MaxGroups
		base.Workers = so.Params.Workers
		base.Slack = so.Params.Slack
		base.MaxAllFail = so.Params.MaxAllFail
		base.DisableCheckpoints = so.Params.DisableCheckpoints
		base.DisablePruning = so.Params.DisablePruning
		return nil, nil
	}
	return st, nil
}
