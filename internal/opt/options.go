package opt

import "sompi/internal/cloud"

// Option mutates a Config before validation — the functional-option half
// of the v1 API. Options always win over the corresponding Config field,
// so a caller can keep a shared base Config and vary one knob per call.
type Option func(*Config)

// WithWorkers sets the concurrent subset-search worker count (0 =
// GOMAXPROCS, 1 = fully serial; the plan is identical either way).
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithKappa sets the maximum number of circle groups a plan may use.
func WithKappa(k int) Option { return func(c *Config) { c.Kappa = k } }

// WithSlack sets the deadline fraction reserved for checkpoint/recovery
// overhead when sizing the on-demand fleet.
func WithSlack(s float64) Option { return func(c *Config) { c.Slack = s } }

// WithGridLevels sets the number of logarithmic bid-price points per
// group.
func WithGridLevels(n int) Option { return func(c *Config) { c.GridLevels = n } }

// WithMaxGroups caps how many candidate groups enter the κ-subset
// traversal.
func WithMaxGroups(n int) Option { return func(c *Config) { c.MaxGroups = n } }

// WithMaxAllFail rejects plans whose probability that every circle group
// dies exceeds p.
func WithMaxAllFail(p float64) Option { return func(c *Config) { c.MaxAllFail = p } }

// WithCandidates restricts the circle-group markets considered.
func WithCandidates(keys []cloud.MarketKey) Option {
	return func(c *Config) { c.Candidates = keys }
}

// WithOnDemandTypes restricts the recovery-fleet candidates.
func WithOnDemandTypes(types []cloud.InstanceType) Option {
	return func(c *Config) { c.OnDemandTypes = types }
}

// WithoutCheckpoints forces F = T on every group (the paper's w/o-CK
// ablation).
func WithoutCheckpoints() Option { return func(c *Config) { c.DisableCheckpoints = true } }

// WithoutPruning disables the branch-and-bound cuts, forcing exhaustive
// enumeration (benchmark and determinism harnesses only).
func WithoutPruning() Option { return func(c *Config) { c.DisablePruning = true } }

// WithExplain records the optimizer's decision trail into Result.Explain
// (per-candidate keep/reject reasons, per-stage durations, the selected
// subset). The plan itself is unaffected.
func WithExplain() Option { return func(c *Config) { c.Explain = true } }

// WithReuse attaches a cross-optimization reuse cache (see Config.Reuse).
// The plan is unaffected; skipped work lands in Result.SavedEvals.
func WithReuse(cache *ReuseCache) Option { return func(c *Config) { c.Reuse = cache } }
