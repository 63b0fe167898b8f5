package opt

import (
	"math"
	"sync"

	"sompi/internal/cloud"
	"sompi/internal/model"
)

// ReuseCache carries prepared-group state across optimizations of the
// same market. The sharded market's per-(type, AZ) version vector makes
// staleness exact: a candidate group is fully determined by its shard's
// trace content — identified by (shard version, window bounds) — plus
// the scalar group parameters (T, M, O, R, grid levels, checkpoint
// mode), so when none of those changed since the last optimization, the
// group's failure distributions, bid-grid PreparedGroups, spot-cost
// floor and standalone ranking cost are all bit-identical and can be
// reused instead of re-derived. At a T_m re-optimization where one shard
// ticked and eleven did not, that skips eleven twelfths of the
// Prewarm/Prepare work and the ranking evaluations of the eleven.
//
// That is all it holds: one slot per (shard, profile), overwritten when
// the shard's state moves, so the cache is bounded by the market and not
// by how many optimizations ran. The κ-subset search itself is never
// memoized — a leaf is ~0.2 µs (the ledger's opt.ns_per_eval), and even
// at ~1.8 µs a cross-optimization leaf memo measured slower end to end
// than re-evaluating (DESIGN §6).
//
// Reuse never changes the returned plan: a cache hit substitutes values
// that are bit-identical to what a cold computation would produce (the
// determinism property the warm-vs-cold tests assert byte-for-byte).
// It does change Result.Evals — ranking evaluations the standalone memo
// answered are reported in Result.SavedEvals instead.
//
// A ReuseCache is safe for concurrent use by multiple optimizations.
type ReuseCache struct {
	mu     sync.Mutex
	groups map[groupSlot]*reuseEntry
}

// NewReuseCache returns an empty cache, ready to be shared across
// optimizations (Config.Reuse).
func NewReuseCache() *ReuseCache {
	return &ReuseCache{groups: make(map[groupSlot]*reuseEntry)}
}

// groupSlot names one cached candidate: the market shard and the
// profile it was sized for. One slot holds one entry; a state mismatch
// (new shard version, different window, different knobs) overwrites it.
type groupSlot struct {
	key     cloud.MarketKey
	profile string
}

// groupState fingerprints everything a candidate group's prepared state
// depends on. Float parameters are stored as bits so comparison is
// exact equality, never tolerance.
type groupState struct {
	version          uint64
	winStart, winDur uint64
	m, t             int
	o, r             uint64
	gridLevels       int
	noCheckpoints    bool
}

// odKey fingerprints the on-demand fleet an evaluation was scored
// against: its execution time and hourly rate are the only fields the
// cost model reads.
type odKey struct {
	t, rate uint64
}

func odKeyFor(od model.OnDemand) odKey {
	return odKey{t: math.Float64bits(od.T), rate: math.Float64bits(od.Rate())}
}

// reuseEntry is one candidate group's cached derivation. Immutable
// after construction except standalone, which is guarded by the cache
// mutex.
type reuseEntry struct {
	state    groupState
	g        *model.Group
	prepared []*model.PreparedGroup
	minSpot  float64

	// standalone memoizes the ranking stage's best single-group cost per
	// on-demand fleet (the fleet changes when the residual profile or
	// deadline moves the Formula 12–13 selection).
	standalone map[odKey]float64
}

// lookupGroup returns the entry for slot if its state matches exactly.
func (c *ReuseCache) lookupGroup(slot groupSlot, st groupState) (*reuseEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.groups[slot]
	if !ok || e.state != st {
		return nil, false
	}
	return e, true
}

// storeGroup registers a freshly derived entry. Concurrent
// optimizations may race to fill the same slot; the states are identical
// by construction, so either winning is fine.
func (c *ReuseCache) storeGroup(slot groupSlot, e *reuseEntry) *reuseEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.groups[slot]; ok && cur.state == e.state {
		return cur
	}
	c.groups[slot] = e
	return e
}

// standaloneCost returns the memoized ranking cost of e against od.
func (c *ReuseCache) standaloneCost(e *reuseEntry, k odKey) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := e.standalone[k]
	return v, ok
}

// putStandalone memoizes a ranking cost.
func (c *ReuseCache) putStandalone(e *reuseEntry, k odKey, cost float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.standalone == nil {
		e.standalone = make(map[odKey]float64, 2)
	}
	e.standalone[k] = cost
}

// reuseBinding is the per-optimization view of the cache: resolved once
// at the start of OptimizeContext from the market's window bounds and
// version vector. nil when reuse is disabled or the view cannot state
// its bounds exactly.
type reuseBinding struct {
	cache            *ReuseCache
	vv               cloud.VersionVector
	winStart, winDur uint64
}

// bindReuse resolves cfg's reuse cache against its market view. Views
// without exact window bounds (or without the optional WindowBounds
// method at all) silently run cold: correctness never depends on reuse.
func bindReuse(cfg Config) *reuseBinding {
	if cfg.Reuse == nil {
		return nil
	}
	wb, ok := cfg.Market.(interface {
		WindowBounds() (float64, float64, bool)
	})
	if !ok {
		return nil
	}
	start, dur, exact := wb.WindowBounds()
	if !exact {
		return nil
	}
	return &reuseBinding{
		cache:    cfg.Reuse,
		vv:       cfg.Market.VersionVector(),
		winStart: math.Float64bits(start),
		winDur:   math.Float64bits(dur),
	}
}

// stateFor fingerprints a freshly built group under this binding.
func (b *reuseBinding) stateFor(cfg Config, key cloud.MarketKey, g *model.Group) groupState {
	return groupState{
		version:       b.vv[key],
		winStart:      b.winStart,
		winDur:        b.winDur,
		m:             g.M,
		t:             g.T,
		o:             math.Float64bits(g.O),
		r:             math.Float64bits(g.R),
		gridLevels:    cfg.GridLevels,
		noCheckpoints: cfg.DisableCheckpoints,
	}
}
