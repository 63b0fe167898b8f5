package opt

import (
	"math"
	"sync"
	"sync/atomic"

	"sompi/internal/cloud"
	"sompi/internal/failure"
	"sompi/internal/model"
	"sompi/internal/trace"
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
// Below the group tier sits a passage tier. A group that misses — its
// profile's T moved, as a session's residual does every window — still
// shares its history with every other profile's group on that shard, and
// the history's first-passage sweep and expected spot price per bid
// (failure.Passage, failure.ExpectedSpotPrice) depend on nothing else.
// The tier holds one slot per shard, keyed on (shard version, window
// bounds) like the group tier, with one sweep and price per bid, so
// profiles that miss the group tier on the same window share one sweep
// per (shard, bid) instead of one each.
//
// That is all it holds: one group slot per (shard, profile) and one
// passage slot per shard, each overwritten when the shard's state moves,
// so the cache is bounded by the market (shards × profiles groups,
// shards × grid levels sweeps) and not by how many optimizations ran.
// The κ-subset search itself is never memoized — a leaf is ~0.2 µs (the
// ledger's opt.ns_per_eval), and even at ~1.8 µs a cross-optimization
// leaf memo measured slower end to end than re-evaluating (DESIGN §6).
//
// Reuse never changes the returned plan: a cache hit substitutes values
// that are bit-identical to what a cold computation would produce (the
// determinism property the warm-vs-cold tests assert byte-for-byte).
// It does change Result.Evals — ranking evaluations the standalone memo
// answered are reported in Result.SavedEvals instead.
//
// A ReuseCache is safe for concurrent use by multiple optimizations. Its
// mutex is a leaf lock: nothing is derived while it is held.
type ReuseCache struct {
	mu       sync.Mutex
	groups   map[groupSlot]*reuseEntry
	passages map[cloud.MarketKey]*passageSlot
	// sweeps counts the passages the tier derived, for tests to hold it
	// to one per (shard window, bid).
	sweeps atomic.Int64
}

// NewReuseCache returns an empty cache, ready to be shared across
// optimizations (Config.Reuse).
func NewReuseCache() *ReuseCache {
	return &ReuseCache{
		groups:   make(map[groupSlot]*reuseEntry),
		passages: make(map[cloud.MarketKey]*passageSlot),
	}
}

// groupSlot names one cached candidate: the market shard and the
// profile it was sized for. One slot holds one entry; a state mismatch
// (new shard version, different window, different knobs) overwrites it.
type groupSlot struct {
	key     cloud.MarketKey
	profile string
}

// groupState fingerprints everything a candidate group's prepared state
// depends on: its shard's history and the group's own parameters. Float
// parameters are stored as bits so comparison is exact equality, never
// tolerance.
type groupState struct {
	history       historyState
	m, t          int
	o, r          uint64
	gridLevels    int
	noCheckpoints bool
}

// historyState fingerprints a shard's training history — its version
// and the window bounds — which is all a passage depends on.
type historyState struct {
	version          uint64
	winStart, winDur uint64
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

// passageSlot is one shard's passage tier at one history state: the
// sweep and expected spot price per bid (keyed by its bits).
type passageSlot struct {
	state historyState
	bids  map[uint64]sweep
}

type sweep struct {
	p     *failure.Passage
	price float64
}

// lookupPassage returns the shard's sweep at bid if its slot is at st.
func (c *ReuseCache) lookupPassage(key cloud.MarketKey, st historyState, bid uint64) (sweep, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.passages[key]
	if !ok || slot.state != st {
		return sweep{}, false
	}
	sw, ok := slot.bids[bid]
	return sw, ok
}

// storePassage registers a sweep derived outside the lock, replacing the
// shard's slot when its state moved. A racing derivation of the same
// sweep is identical by construction; the first stored wins.
func (c *ReuseCache) storePassage(key cloud.MarketKey, st historyState, bid uint64, sw sweep) sweep {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.passages[key]
	if !ok || slot.state != st {
		slot = &passageSlot{state: st, bids: make(map[uint64]sweep)}
		c.passages[key] = slot
	}
	if cur, ok := slot.bids[bid]; ok {
		return cur
	}
	slot.bids[bid] = sw
	return sw
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

// passages is the passage tier for one group under this binding: each
// bid's sweep of hist comes from the shard's slot, derived outside the
// cache lock on a miss.
func (b *reuseBinding) passages(key cloud.MarketKey, hist *trace.Trace) model.PassageSource {
	st := b.historyOf(key)
	return func(bid float64) (*failure.Passage, float64) {
		bits := math.Float64bits(bid)
		sw, ok := b.cache.lookupPassage(key, st, bits)
		if !ok {
			b.cache.sweeps.Add(1)
			sw = b.cache.storePassage(key, st, bits,
				sweep{failure.NewPassage(hist, bid), failure.ExpectedSpotPrice(hist, bid)})
		}
		return sw.p, sw.price
	}
}

// historyOf fingerprints a shard's history under this binding.
func (b *reuseBinding) historyOf(key cloud.MarketKey) historyState {
	return historyState{version: b.vv[key], winStart: b.winStart, winDur: b.winDur}
}

// stateFor fingerprints a freshly built group under this binding.
func (b *reuseBinding) stateFor(cfg Config, key cloud.MarketKey, g *model.Group) groupState {
	return groupState{
		history:       b.historyOf(key),
		m:             g.M,
		t:             g.T,
		o:             math.Float64bits(g.O),
		r:             math.Float64bits(g.R),
		gridLevels:    cfg.GridLevels,
		noCheckpoints: cfg.DisableCheckpoints,
	}
}
