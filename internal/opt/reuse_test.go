package opt

import (
	"context"
	"math"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
)

// passageKey names one (shard, bid) first-passage sweep.
type passageKey struct {
	key cloud.MarketKey
	bid uint64
}

// TestReuseCacheSharesPassagesAcrossProfiles pins the passage tier: the
// eight plan-miss presets optimized on one window through one cache miss
// the group tier every time (each is a different profile), yet sweep each
// (shard, bid) of their bid grids exactly once between them, and plan
// byte-identically to a search with no cache at all. A second window
// overwrites the slots rather than growing the cache.
func TestReuseCacheSharesPassagesAcrossProfiles(t *testing.T) {
	ctx := context.Background()
	cache := NewReuseCache()
	const deadline = 80
	for _, win := range []float64{96, 24} {
		view := planMissWindow(win)
		if _, _, exact := view.(interface {
			WindowBounds() (float64, float64, bool)
		}).WindowBounds(); !exact {
			t.Fatal("precondition: the plan-miss window must have exact bounds, or nothing binds the cache")
		}
		before := cache.sweeps.Load()
		distinct := map[passageKey]bool{}
		requested := 0
		for _, name := range planMissPresets {
			p, _ := app.ByName(name)
			cfg := Config{Profile: p, Market: view, Deadline: deadline, Workers: 1}
			cold, err := OptimizeContext(ctx, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cfg.Reuse = cache
			reused, err := OptimizeContext(ctx, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if fingerprint(reused) != fingerprint(cold) || reused.Pruned != cold.Pruned ||
				reused.Evals+reused.SavedEvals != cold.Evals {
				t.Fatalf("%gh %s: shared sweeps changed the search:\n%s(evals %d+%d pruned %d)\nvs cold\n%s(evals %d pruned %d)",
					win, name, fingerprint(reused), reused.Evals, reused.SavedEvals, reused.Pruned,
					fingerprint(cold), cold.Evals, cold.Pruned)
			}
			if reused.ReusedGroups != 0 {
				t.Fatalf("%gh %s: %d groups hit the group tier; the presets must all miss it", win, name, reused.ReusedGroups)
			}
			kept, _, err := buildGroups(cfg.withDefaults(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range kept {
				for _, bid := range BidGrid(g, cfg.withDefaults().GridLevels) {
					distinct[passageKey{g.Key, math.Float64bits(bid)}] = true
					requested++
				}
			}
		}
		if swept := cache.sweeps.Load() - before; swept != int64(len(distinct)) {
			t.Fatalf("%gh: %d sweeps derived for %d distinct (shard, bid) pairs", win, swept, len(distinct))
		}
		if requested <= len(distinct) {
			t.Fatalf("%gh: the presets requested %d sweeps over %d pairs: nothing to share", win, requested, len(distinct))
		}
		t.Logf("%gh window: %d bid-grid sweeps requested, %d derived", win, requested, len(distinct))
		if len(cache.passages) > len(view.Keys()) {
			t.Fatalf("%gh: %d passage slots for %d shards", win, len(cache.passages), len(view.Keys()))
		}
		for key, slot := range cache.passages {
			if len(slot.bids) > DefaultGridLevels {
				t.Fatalf("%gh: shard %v holds %d sweeps, more than a grid", win, key, len(slot.bids))
			}
		}
	}
}
