// Package serve implements sompid, the long-running SOMPI planner
// service: an HTTP/JSON v1 API over the optimizer (POST /v1/plan), the
// cost model (POST /v1/evaluate), the Monte Carlo harness
// (POST /v1/montecarlo) and streaming spot-price ingestion
// (POST /v1/prices). Ingestion appends to the sharded cloud.Market —
// locking only the target (type, zone) shard — and tracked plan sessions
// are re-optimized Algorithm-1 style whenever the price frontier of the
// shards in their plan crosses their next T_m window boundary.
//
// Plan responses are deduplicated through an LRU cache keyed on the full
// request plus the version vector of the shards the request actually
// touches, so a cache hit is byte-identical to the miss that populated
// it, ingestion into a touched shard invalidates exactly the plans that
// read it, and a tick on any other shard evicts nothing.
package serve

import (
	"fmt"
	"math"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/model"
	"sompi/internal/obs"
	"sompi/internal/opt"
	"sompi/internal/strategy"
)

// PlanRequest asks the service for a SOMPI plan. Zero-valued knobs take
// the paper's defaults, exactly as the library's opt.Config does.
type PlanRequest struct {
	// App names a workload preset (BT, SP, LU, FT, IS, BTIO, LAMMPS-32,
	// LAMMPS-128).
	App string `json:"app"`
	// DeadlineHours is the absolute completion deadline in hours.
	DeadlineHours float64 `json:"deadline_hours"`
	// HistoryHours is how much trailing price history the optimization
	// trains on; zero means the service default.
	HistoryHours float64 `json:"history_hours,omitempty"`

	// Optimizer knobs, mirroring opt.Config field for field. Workers is
	// range-checked like the sompi strategy's workers param and then
	// ignored: the search runs on one worker.
	Workers            int     `json:"workers,omitempty"`
	Kappa              int     `json:"kappa,omitempty"`
	GridLevels         int     `json:"grid_levels,omitempty"`
	MaxGroups          int     `json:"max_groups,omitempty"`
	Slack              float64 `json:"slack,omitempty"`
	MaxAllFail         float64 `json:"max_all_fail,omitempty"`
	DisableCheckpoints bool    `json:"disable_checkpoints,omitempty"`
	DisablePruning     bool    `json:"disable_pruning,omitempty"`

	// Types and Zones restrict the candidate circle-group markets to the
	// named instance types and/or availability zones (empty means no
	// restriction on that axis). A restricted request reads — and is
	// cached against — only the matching shards: ticks on every other
	// (type, zone) market neither invalidate its cache entry nor move
	// its training frontier. The on-demand recovery fleet still draws
	// from the whole catalog.
	Types []string `json:"types,omitempty"`
	Zones []string `json:"zones,omitempty"`

	// Track registers the plan as a live session: every time ingested
	// prices cross the session's next T_m window boundary, the service
	// replays the elapsed window against the actual prices and
	// re-optimizes the residual work (Algorithm 1). Tracked requests
	// bypass the plan cache — each one creates a distinct session.
	Track bool `json:"track,omitempty"`

	// Strategy selects a registered planning strategy by name (see
	// GET /v1/strategies). Empty keeps the default sompi optimizer path,
	// whose responses are byte-identical to the pre-strategy API; an
	// unknown name is a 400. Each strategy caches under its own
	// namespace, so "sompi" and "" never cross-evict even though their
	// plans agree.
	Strategy string `json:"strategy,omitempty"`
	// StrategyParams are the strategy's typed parameters (schema in
	// GET /v1/strategies); omitted keys take their defaults. For
	// strategy "sompi" they overlay the top-level optimizer knobs.
	StrategyParams map[string]float64 `json:"strategy_params,omitempty"`
}

// CandidateKeys reports the market keys the request's Types/Zones
// filters select from view, in view's deterministic key order. It
// returns nil when no filter is set: nil means "every key" both to
// opt.Config.Candidates and to the view's MinDurationFor, so an
// unrestricted request behaves exactly as before filters existed.
func (pr PlanRequest) CandidateKeys(view cloud.MarketView) []cloud.MarketKey {
	if len(pr.Types) == 0 && len(pr.Zones) == 0 {
		return nil
	}
	match := func(want []string, got string) bool {
		if len(want) == 0 {
			return true
		}
		for _, w := range want {
			if w == got {
				return true
			}
		}
		return false
	}
	keys := make([]cloud.MarketKey, 0)
	for _, k := range view.Keys() {
		if match(pr.Types, k.Type) && match(pr.Zones, k.Zone) {
			keys = append(keys, k)
		}
	}
	return keys
}

// Config builds the optimizer configuration for the request against the
// given training market. Every optimizer knob the request carries but
// the inert Workers lands in the config — including the Types/Zones
// filters, which become opt Candidates — which is what keeps served
// plans byte-identical to library-path OptimizeContext calls.
func (pr PlanRequest) Config(profile app.Profile, train cloud.MarketView) opt.Config {
	var candidates []cloud.MarketKey
	if train != nil {
		candidates = pr.CandidateKeys(train)
	}
	return opt.Config{
		Candidates:         candidates,
		Profile:            profile,
		Market:             train,
		Deadline:           pr.DeadlineHours,
		Slack:              pr.Slack,
		Kappa:              pr.Kappa,
		GridLevels:         pr.GridLevels,
		MaxGroups:          pr.MaxGroups,
		MaxAllFail:         pr.MaxAllFail,
		DisableCheckpoints: pr.DisableCheckpoints,
		DisablePruning:     pr.DisablePruning,
	}
}

// GroupPayload is one circle group of a plan on the wire.
type GroupPayload struct {
	Type          string  `json:"type"`
	Zone          string  `json:"zone"`
	Instances     int     `json:"instances"`
	Bid           float64 `json:"bid"`
	IntervalHours float64 `json:"interval_hours"`
}

// RecoveryPayload is the on-demand recovery fleet on the wire.
type RecoveryPayload struct {
	Type      string  `json:"type"`
	Instances int     `json:"instances"`
	Hours     float64 `json:"hours"`
}

// PlanPayload is a hybrid plan on the wire.
type PlanPayload struct {
	Groups   []GroupPayload  `json:"groups"`
	Recovery RecoveryPayload `json:"recovery"`
}

// EstimatePayload mirrors model.Estimate on the wire.
type EstimatePayload struct {
	Cost      float64 `json:"cost"`
	TimeHours float64 `json:"time_hours"`
	CostSpot  float64 `json:"cost_spot"`
	CostOD    float64 `json:"cost_ondemand"`
	TimeSpot  float64 `json:"time_spot_hours"`
	TimeOD    float64 `json:"time_ondemand_hours"`
	PAllFail  float64 `json:"p_all_fail"`
	EMinRatio float64 `json:"e_min_ratio"`
}

// PlanResponse is the service's answer to a plan request.
type PlanResponse struct {
	// MarketVersion is the market version the plan was optimized at.
	MarketVersion uint64          `json:"market_version"`
	Plan          PlanPayload     `json:"plan"`
	Estimate      EstimatePayload `json:"estimate"`
	// Evals and Pruned report the optimizer's search effort: Evals the
	// evaluations it performed, counting one per search leaf it visited,
	// and Pruned the leaves a bound settled without a visit (see
	// opt.Result). SavedEvals counts ranking-stage evaluations answered
	// by the server's cross-optimization reuse cache instead. Pruned and
	// Evals+SavedEvals are a pure function of the request on every host
	// (see opt.Result): the cache only moves a candidate's ranking
	// evaluations from Evals into SavedEvals once its shard state has
	// been seen, never the search's. The plan itself never varies.
	Evals      int `json:"evals"`
	Pruned     int `json:"pruned"`
	SavedEvals int `json:"saved_evals,omitempty"`
	// SessionID names the tracked session when the request set track.
	SessionID string `json:"session_id,omitempty"`
	// Explain is the optimizer's decision trail, present only when the
	// request asked for it (?explain=1). Explained responses bypass the
	// plan cache, so cached bodies never carry a trail.
	Explain *opt.Explain `json:"explain,omitempty"`
	// Strategy echoes the request's named strategy. Absent on the
	// default path, which keeps those responses byte-identical to the
	// pre-strategy API.
	Strategy string `json:"strategy,omitempty"`
	// StrategyNotes is the named strategy's decision trail (?explain=1
	// only; like Explain, never cached).
	StrategyNotes []string `json:"strategy_notes,omitempty"`
}

// EncodePlan renders a plan for the wire.
func EncodePlan(p model.Plan) PlanPayload {
	out := PlanPayload{
		Recovery: RecoveryPayload{
			Type:      p.Recovery.Instance.Name,
			Instances: p.Recovery.M,
			Hours:     p.Recovery.T,
		},
	}
	for _, gp := range p.Groups {
		out.Groups = append(out.Groups, GroupPayload{
			Type:          gp.Group.Key.Type,
			Zone:          gp.Group.Key.Zone,
			Instances:     gp.Group.M,
			Bid:           gp.Bid,
			IntervalHours: gp.Interval,
		})
	}
	return out
}

// EncodeEstimate renders an estimate for the wire.
func EncodeEstimate(e model.Estimate) EstimatePayload {
	return EstimatePayload{
		Cost:      e.Cost,
		TimeHours: e.Time,
		CostSpot:  e.CostSpot,
		CostOD:    e.CostOD,
		TimeSpot:  e.TimeSpot,
		TimeOD:    e.TimeOD,
		PAllFail:  e.PAllFail,
		EMinRatio: e.EMinRatio,
	}
}

// BuildPlanResponse renders an optimizer result for the wire. It is the
// single encoding path for both the service handler and out-of-process
// comparisons (cmd/smoke's serve stage byte-diffs a served plan against a
// library-path result rendered through this same function).
func BuildPlanResponse(marketVersion uint64, res opt.Result) PlanResponse {
	return PlanResponse{
		MarketVersion: marketVersion,
		Plan:          EncodePlan(res.Plan),
		Estimate:      EncodeEstimate(res.Est),
		Evals:         res.Evals,
		Pruned:        res.Pruned,
		SavedEvals:    res.SavedEvals,
		Explain:       res.Explain,
	}
}

// DecodePlan reconstructs an evaluable plan from its wire form: groups
// and the recovery fleet are rebuilt from the profile against the given
// (training) market, so the failure distributions behind the estimate
// come from the same histories a fresh optimization would use. The
// payload's instance counts and recovery hours are derived quantities
// and are ignored on input.
func DecodePlan(p PlanPayload, profile app.Profile, train cloud.MarketView) (model.Plan, error) {
	rec, ok := train.Catalog().ByName(p.Recovery.Type)
	if !ok {
		return model.Plan{}, fmt.Errorf("%w: recovery type %q not in catalog", opt.ErrNoCandidates, p.Recovery.Type)
	}
	out := model.Plan{Recovery: model.NewOnDemand(profile, rec)}
	for i, g := range p.Groups {
		it, ok := train.Catalog().ByName(g.Type)
		if !ok {
			return model.Plan{}, fmt.Errorf("%w: group %d type %q not in catalog", opt.ErrNoCandidates, i, g.Type)
		}
		tr, ok := train.TraceFor(cloud.MarketKey{Type: g.Type, Zone: g.Zone})
		if !ok {
			return model.Plan{}, fmt.Errorf("%w: group %d market %s/%s has no price history", opt.ErrNoCandidates, i, g.Type, g.Zone)
		}
		if g.Bid <= 0 || math.IsNaN(g.Bid) {
			return model.Plan{}, fmt.Errorf("%w: group %d bid %v is not a price", opt.ErrInvalidConfig, i, g.Bid)
		}
		grp := model.NewGroup(profile, it, g.Zone, tr)
		interval := g.IntervalHours
		if interval <= 0 {
			interval = float64(grp.T) // the "no checkpoints" convention
		}
		out.Groups = append(out.Groups, model.GroupPlan{Group: grp, Bid: g.Bid, Interval: interval})
	}
	return out, nil
}

// EvaluateRequest asks for a cost-model evaluation of an explicit plan.
type EvaluateRequest struct {
	App          string      `json:"app"`
	HistoryHours float64     `json:"history_hours,omitempty"`
	Plan         PlanPayload `json:"plan"`
}

// EvaluateResponse is the answer to an evaluate request.
type EvaluateResponse struct {
	MarketVersion uint64          `json:"market_version"`
	Estimate      EstimatePayload `json:"estimate"`
}

// MonteCarloRequest asks for a Monte Carlo replay of a strategy over the
// market ingested so far.
type MonteCarloRequest struct {
	App           string  `json:"app"`
	DeadlineHours float64 `json:"deadline_hours"`
	Runs          int     `json:"runs"`
	Seed          uint64  `json:"seed,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	HistoryHours  float64 `json:"history_hours,omitempty"`
	// Strategy selects the replayed policy: sompi (default), baseline,
	// on-demand, marathe, marathe-opt, spot-inf, spot-avg, or any name
	// from GET /v1/strategies (portfolio, noft, adaptive-ckpt, ...).
	Strategy string `json:"strategy,omitempty"`
	// StrategyParams parameterize a registry strategy (ignored for the
	// classic baseline names).
	StrategyParams map[string]float64 `json:"strategy_params,omitempty"`
	// WindowHours overrides T_m for the sompi strategy.
	WindowHours float64 `json:"window_hours,omitempty"`
}

// MonteCarloResponse summarizes the replications.
type MonteCarloResponse struct {
	MarketVersion  uint64  `json:"market_version"`
	Strategy       string  `json:"strategy"`
	Runs           int     `json:"runs"`
	Failures       int     `json:"failures"`
	CostMean       float64 `json:"cost_mean"`
	CostStd        float64 `json:"cost_std"`
	HoursMean      float64 `json:"hours_mean"`
	HoursStd       float64 `json:"hours_std"`
	DeadlineMisses int     `json:"deadline_misses"`
	MissRate       float64 `json:"miss_rate"`
}

// PriceTick is one ingestion unit: new trailing samples for one market.
// Prices are $/instance-hour, one per trace step.
type PriceTick struct {
	Type   string    `json:"type"`
	Zone   string    `json:"zone"`
	Prices []float64 `json:"prices"`
}

// PricesResponse reports what an ingestion request changed.
type PricesResponse struct {
	// MarketVersion is the version after the last applied tick.
	MarketVersion uint64 `json:"market_version"`
	// Ticks and Samples count what was applied.
	Ticks   int `json:"ticks"`
	Samples int `json:"samples"`
	// FrontierHours is the consistent price frontier (every market has
	// samples up to at least this hour) after ingestion.
	FrontierHours float64 `json:"frontier_hours"`
	// Reoptimized counts tracked-session window re-optimizations and
	// Completed counts session completions that landed server-wide while
	// the request waited on the ?sync=1 scheduler drain. Session
	// advancement is asynchronous: without ?sync=1 both report 0 even
	// when the feed crossed boundaries — the scheduler runs them off the
	// request path.
	Reoptimized int `json:"reoptimized"`
	Completed   int `json:"completed"`
}

// SessionInfo is the observable state of one tracked session.
type SessionInfo struct {
	ID            string  `json:"id"`
	App           string  `json:"app"`
	DeadlineHours float64 `json:"deadline_hours"`
	StartHours    float64 `json:"start_hours"`
	Progress      float64 `json:"progress"`
	ElapsedHours  float64 `json:"elapsed_hours"`
	Cost          float64 `json:"cost"`
	Windows       int     `json:"windows"`
	Reoptimized   int     `json:"reoptimized"`
	PlanVersion   uint64  `json:"plan_version"`
	Done          bool    `json:"done"`
	Completed     bool    `json:"completed"`
	// Audit is the session's append-only decision log: one record per
	// window-boundary decision, oldest first (bounded — the oldest records
	// are dropped past maxAuditRecords).
	Audit []AuditRecord `json:"audit,omitempty"`
}

// AuditRecord is one window-boundary decision in a tracked session's
// append-only audit log: what the session was running, what it switched
// to, at which market state, and why.
type AuditRecord struct {
	// Window is the session's window counter after the decision;
	// BoundaryHours the absolute market hour of the boundary that
	// triggered it.
	Window        int     `json:"window"`
	BoundaryHours float64 `json:"boundary_hours"`
	// Trigger names the decision branch: "reoptimized", "ran_out_on_demand",
	// "completed", "recovered_on_demand" or "opt_error".
	Trigger string `json:"trigger"`
	// OldPlan is the plan that just finished its window; NewPlan the plan
	// adopted for the next one (nil when the session went terminal).
	OldPlan PlanPayload  `json:"old_plan"`
	NewPlan *PlanPayload `json:"new_plan,omitempty"`
	// MarketVersions is the version vector of the session's candidate
	// shards at decision time — the exact market state the decision saw.
	MarketVersions map[string]uint64 `json:"market_versions"`
	// OldPlanCost is the previous plan's estimated cost at its own
	// optimization time; NewPlanCost the adopted plan's estimate;
	// CostDelta their difference (new − old).
	OldPlanCost float64 `json:"old_plan_cost"`
	NewPlanCost float64 `json:"new_plan_cost,omitempty"`
	CostDelta   float64 `json:"cost_delta,omitempty"`
	// Error carries the optimizer error on the "opt_error" trigger.
	Error string `json:"error,omitempty"`
}

// TraceResponse is the GET /debug/trace payload.
type TraceResponse struct {
	// Total counts spans ever recorded; the ring retains only the most
	// recent ones.
	Total uint64 `json:"total"`
	// Spans are the retained (optionally filtered) spans, oldest first.
	Spans []obs.SpanData `json:"spans"`
}

// ShardHealth is one (type, zone) shard's entry in the health payload.
type ShardHealth struct {
	// Market is the shard key rendered as "type/zone".
	Market string `json:"market"`
	// Version is the shard's own mutation counter (1 = never appended).
	Version uint64 `json:"version"`
	// Ticks counts ingestion appends applied to this shard; skew between
	// shards means some feeds are stale.
	Ticks uint64 `json:"ticks"`
	// Samples is the retained price-sample count; Compacted counts
	// samples dropped by ring-buffer retention.
	Samples   int    `json:"samples"`
	Compacted uint64 `json:"compacted_samples"`
	// DurationHours is the shard's absolute price frontier.
	DurationHours float64 `json:"duration_hours"`
}

// HealthResponse is the /healthz payload: composite market state plus
// per-shard ingestion counters so operators can see ingestion skew.
type HealthResponse struct {
	// Status is "ok", or "degraded" when WAL appends have failed — the
	// service is still serving but its durability guarantee is weakened
	// (WALAppendErrors counts the records that never reached disk).
	Status          string        `json:"status"`
	MarketVersion   uint64        `json:"market_version"`
	FrontierHours   float64       `json:"frontier_hours"`
	ActiveSessions  int64         `json:"active_sessions"`
	WALAppendErrors int64         `json:"wal_append_errors"`
	Shards          []ShardHealth `json:"shards"`
}

// StrategyInfo is one registry entry in the GET /v1/strategies payload.
type StrategyInfo struct {
	Name    string               `json:"name"`
	Summary string               `json:"summary"`
	Params  []strategy.ParamSpec `json:"params"`
	// Default marks the strategy an empty request field resolves to.
	Default bool `json:"default,omitempty"`
}

// ScenarioInfo is one scenario-catalog entry in the strategies payload.
type ScenarioInfo struct {
	Name    string `json:"name"`
	Summary string `json:"summary"`
}

// StrategiesResponse is the GET /v1/strategies payload: the bounded
// strategy registry with parameter schemas, plus the scenario catalog
// the tournament runner evaluates against.
type StrategiesResponse struct {
	Default    string         `json:"default"`
	Strategies []StrategyInfo `json:"strategies"`
	Scenarios  []ScenarioInfo `json:"scenarios"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}
