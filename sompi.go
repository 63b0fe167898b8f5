// Package sompi is the public API of the SOMPI reproduction: monetary
// cost optimization for MPI applications on spot + on-demand cloud
// instances with checkpoints and replicated execution (Gong, He, Zhou —
// SC '15).
//
// The package re-exports the pieces a downstream user composes:
//
//   - workloads and the cloud substrate (Workload*, GenerateMarket),
//   - the SOMPI optimizer (OptimizeContext, Config) and its plans,
//   - the trace-replay simulator and Monte Carlo harness,
//   - every comparison strategy from the paper,
//   - the experiment registry that regenerates each paper figure/table.
//
// The v1 surface is context-aware: OptimizeContext and MonteCarloContext
// accept a context.Context for cancellation and report typed sentinel
// errors (ErrInvalidConfig, ErrDeadlineInfeasible, ErrNoCandidates,
// ErrMarketTooShort) that callers match with errors.Is. Every optimizer
// knob is a Config field. The same engine runs as a long-lived HTTP/JSON
// service — see cmd/sompid and internal/serve.
//
// See examples/quickstart for the three-call happy path.
package sompi

import (
	"context"

	"sompi/internal/app"
	"sompi/internal/baselines"
	"sompi/internal/cloud"
	"sompi/internal/experiments"
	"sompi/internal/model"
	"sompi/internal/opt"
	"sompi/internal/replay"
	"sompi/internal/report"
	"sompi/internal/strategy"
)

// Core model types.
type (
	// Profile is a TAU-style application resource profile.
	Profile = app.Profile
	// InstanceType describes one cloud instance type.
	InstanceType = cloud.InstanceType
	// Market is the live sharded price store: one independently locked
	// and versioned shard per (type, zone) pair.
	Market = cloud.Market
	// MarketView is the read-only interface consumers program against;
	// *Market and immutable snapshots (Market.Snapshot, Market.Window)
	// both implement it.
	MarketView = cloud.MarketView
	// MarketKey names one spot market.
	MarketKey = cloud.MarketKey
	// Plan is a hybrid spot/on-demand execution plan.
	Plan = model.Plan
	// Estimate is the model's expected cost/time evaluation of a plan.
	Estimate = model.Estimate
	// Config parameterizes the SOMPI optimizer.
	Config = opt.Config
	// Result is a scored plan returned by OptimizeContext.
	Result = opt.Result
	// Runner replays plans against a market.
	Runner = replay.Runner
	// Strategy is an executable planning policy (SOMPI or a baseline).
	Strategy = replay.Strategy
	// MCStats aggregates Monte Carlo replications of a strategy.
	MCStats = replay.MCStats
	// MCConfig sizes a Monte Carlo evaluation.
	MCConfig = replay.MCConfig
	// Session threads Algorithm 1's window-by-window execution state.
	Session = replay.Session
	// Table is a rendered experiment result.
	Table = report.Table
	// ExperimentParams sizes a paper-experiment run.
	ExperimentParams = experiments.Params
)

// Workloads from the paper's evaluation (NPB kernels and LAMMPS).
var (
	WorkloadBT   = app.BT
	WorkloadSP   = app.SP
	WorkloadLU   = app.LU
	WorkloadFT   = app.FT
	WorkloadIS   = app.IS
	WorkloadBTIO = app.BTIO
)

// WorkloadLAMMPS returns the LAMMPS campaign profile for a process count.
func WorkloadLAMMPS(procs int) Profile { return app.LAMMPS(procs) }

// Workloads returns every preset profile the paper evaluates.
func Workloads() []Profile {
	return append(app.NPB(), app.LAMMPS(32), app.LAMMPS(128))
}

// DefaultCatalog returns the paper's four candidate instance types.
func DefaultCatalog() []InstanceType { return cloud.DefaultCatalog() }

// DefaultZones returns the availability zones the paper draws circle
// groups from.
func DefaultZones() []string { return cloud.DefaultZones() }

// GenerateMarket synthesizes hours of spot-price history for every
// (type, zone) pair, deterministically from seed.
func GenerateMarket(hours float64, seed uint64) *Market {
	return cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), hours, seed)
}

// EstimateHours predicts the execution time of a profile on a fleet of
// the given instance type (the paper's Section 4.4 performance model).
func EstimateHours(p Profile, it InstanceType) float64 { return app.EstimateHours(p, it) }

// OptimizeContext runs the SOMPI optimizer under ctx: cancelling aborts
// the κ-subset search at the next evaluation and returns ctx.Err()
// alongside a partial Result. Invalid configurations are reported as
// ErrInvalidConfig; see also ErrDeadlineInfeasible and ErrNoCandidates.
func OptimizeContext(ctx context.Context, cfg Config) (Result, error) {
	return opt.OptimizeContext(ctx, cfg)
}

// Typed sentinel errors of the v1 API, for errors.Is matching.
var (
	// ErrInvalidConfig reports out-of-range optimizer or Monte Carlo
	// configuration fields. The opt and replay packages each wrap their
	// own sentinel; test against the one matching the call.
	ErrInvalidConfig = opt.ErrInvalidConfig
	// ErrMCInvalidConfig is the Monte Carlo analogue of ErrInvalidConfig.
	ErrMCInvalidConfig = replay.ErrInvalidConfig
	// ErrDeadlineInfeasible reports that no on-demand fleet can meet the
	// deadline.
	ErrDeadlineInfeasible = opt.ErrDeadlineInfeasible
	// ErrNoCandidates reports a candidate market outside the catalog or
	// trace set.
	ErrNoCandidates = opt.ErrNoCandidates
	// ErrMarketTooShort reports a market with no usable price history.
	ErrMarketTooShort = replay.ErrMarketTooShort
)

// NewSession starts an Algorithm-1 execution session for the runner's
// application at absolute market hour start.
func NewSession(r *Runner, deadline, start float64) *Session {
	return replay.NewSession(r, deadline, start)
}

// Evaluate computes the expected monetary cost and execution time of a
// plan under the paper's cost model.
func Evaluate(p Plan) Estimate { return model.Evaluate(p) }

// MonteCarloContext replays a strategy repeatedly from random trace
// start points under ctx. Results are identical at every worker count
// for a fixed seed.
func MonteCarloContext(ctx context.Context, s Strategy, r *Runner, cfg MCConfig) (MCStats, error) {
	return replay.MonteCarloContext(ctx, s, r, cfg)
}

// Strategies from the paper's evaluation.
var (
	// NewSOMPI is the full adaptive optimizer (Algorithm 1).
	NewSOMPI = baselines.SOMPI
	// NewBaseline runs on the best-performance on-demand fleet.
	NewBaseline = baselines.Baseline
	// NewOnDemand picks the cheapest deadline-feasible on-demand fleet.
	NewOnDemand = baselines.OnDemandOnly
	// NewMarathe is the state-of-the-art comparison [30].
	NewMarathe = baselines.Marathe
	// NewMaratheOpt is Marathe with optimized instance-type choice.
	NewMaratheOpt = baselines.MaratheOpt
	// NewSpotInf bids effectively infinitely on the cheapest spot market.
	NewSpotInf = baselines.SpotInf
	// NewSpotAvg bids the historical average price.
	NewSpotAvg = baselines.SpotAvg
)

// Experiments returns the registry of paper figures/tables this
// repository regenerates; run entries via their Run field.
func Experiments() []experiments.Experiment { return experiments.Registry() }

// ExperimentByID looks up one experiment (e.g. "fig5").
func ExperimentByID(id string) (experiments.Experiment, error) { return experiments.ByID(id) }

// Strategy catalog & tournament surface. A PlanStrategy is a named,
// typed-parameter planning policy from the registry ("sompi" — the
// default, byte-identical to OptimizeContext — plus "portfolio", "noft"
// and "adaptive-ckpt"); NewStrategy builds one to Plan with, and
// Tournament Monte Carlo-evaluates the whole catalog across market
// scenarios.
type (
	// PlanStrategy is a named planning policy from the registry.
	PlanStrategy = strategy.Strategy
	// StrategyPlan is a strategy's answer: plan, estimate, search effort.
	StrategyPlan = strategy.Plan
	// StrategyExplain is a strategy's decision trail.
	StrategyExplain = strategy.Explain
	// StrategyDescriptor is one registry entry with its parameter schema.
	StrategyDescriptor = strategy.Descriptor
	// StrategyParamSpec is one strategy parameter's wire schema.
	StrategyParamSpec = strategy.ParamSpec
	// Workload is the application a strategy plans for.
	Workload = strategy.Workload
	// Deadline is the completion constraint a strategy plans against.
	Deadline = strategy.Deadline
	// Scenario is a named market-and-billing regime for evaluation.
	Scenario = strategy.Scenario
	// TournamentConfig selects the (strategy × workload × deadline ×
	// scenario) grid a tournament evaluates.
	TournamentConfig = strategy.TournamentConfig
	// TournamentReport is a deterministic tournament result.
	TournamentReport = strategy.Report
)

// Typed sentinels of the strategy surface.
var (
	// ErrUnknownStrategy reports a name absent from the registry.
	ErrUnknownStrategy = strategy.ErrUnknownStrategy
	// ErrUnknownScenario reports a name absent from the scenario catalog.
	ErrUnknownScenario = strategy.ErrUnknownScenario
)

// Strategies lists the registered planning strategies in registration
// order — the default, "sompi", first — with their parameter schemas.
func Strategies() []StrategyDescriptor { return strategy.List() }

// NewStrategy builds a registered strategy by name (nil params =
// defaults). Unknown names report ErrUnknownStrategy; bad parameters
// ErrInvalidConfig.
func NewStrategy(name string, params map[string]float64) (PlanStrategy, error) {
	return strategy.New(name, params)
}

// Scenarios lists the named market scenarios tournaments evaluate
// against (optimistic, realistic, spike-storm, quiet-az, per-second,
// notice-2m).
func Scenarios() []Scenario { return strategy.Scenarios() }

// ReplayStrategy adapts a planning strategy to the replay engine so it
// can be Monte Carlo-evaluated like the paper's baselines.
func ReplayStrategy(s PlanStrategy, m MarketView, history float64) Strategy {
	return strategy.Replay(s, m, history)
}

// Tournament Monte Carlo-evaluates every configured (strategy, workload,
// deadline, scenario) cell and ranks the strategies. For a fixed config
// the report is identical across runs and worker counts.
func Tournament(ctx context.Context, cfg TournamentConfig) (*TournamentReport, error) {
	return strategy.Tournament(ctx, cfg)
}
