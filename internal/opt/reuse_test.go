package opt

import (
	"context"
	"math"
	"sync"
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
			cfg := Config{Profile: p, Market: view, Deadline: deadline}
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

// TestReuseDeltaByteIdentical is the seed-swept property test: after the
// market ticks, a delta-evaluated search (ReuseCache from the previous
// optimization) must return plans byte-identical to a cold search with
// the cold search's Pruned, and only move ranking evaluations from Evals
// to SavedEvals.
// It also pins what the cache is: prepared state for exactly the
// un-ticked shards and one slot per (shard, profile) however many runs
// share it.
func TestReuseDeltaByteIdentical(t *testing.T) {
	ctx := context.Background()
	p := app.BT()
	deadline := FastestOnDemand(nil, p).T * 1.5
	totalSaved := 0
	for _, seed := range []uint64{1, 2, 3, 11, 42} {
		m := testMarket(seed)
		cache := NewReuseCache()
		cfg0 := Config{Profile: p, Market: m.Capture(), Deadline: deadline, Reuse: cache}
		if _, err := OptimizeContext(ctx, cfg0); err != nil {
			t.Fatal(err)
		}

		// Tick two of the twelve shards; the other ten keep their version.
		keys := m.Keys()
		if _, err := m.Append(keys[0], []float64{0.21, 0.24, 0.22}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Append(keys[7], []float64{0.33}); err != nil {
			t.Fatal(err)
		}

		coldCfg := Config{Profile: p, Market: m.Capture(), Deadline: deadline}
		cold, err := OptimizeContext(ctx, coldCfg)
		if err != nil {
			t.Fatal(err)
		}

		// The candidates that reach the bid-grid stage, and how many of
		// them sit on shards the ticks above did not touch.
		kept, _, err := buildGroups(coldCfg.withDefaults(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		unticked := 0
		for _, g := range kept {
			if g.Key != keys[0] && g.Key != keys[7] {
				unticked++
			}
		}

		// The first delta run finds only the un-ticked shards in the
		// cache and registers the two ticked ones; the second finds them
		// all.
		reuseCfg := coldCfg
		reuseCfg.Reuse = cache
		wantReused := unticked
		for pass := 1; pass <= 2; pass++ {
			reuse, err := OptimizeContext(ctx, reuseCfg)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(reuse) != fingerprint(cold) {
				t.Fatalf("seed %d pass %d: delta plan differs from cold:\n%s\nvs\n%s",
					seed, pass, fingerprint(reuse), fingerprint(cold))
			}
			if reuse.Pruned != cold.Pruned || reuse.Evals+reuse.SavedEvals != cold.Evals {
				t.Fatalf("seed %d pass %d: delta counters (evals %d + saved %d, pruned %d) != cold (evals %d, pruned %d)",
					seed, pass, reuse.Evals, reuse.SavedEvals, reuse.Pruned, cold.Evals, cold.Pruned)
			}
			if reuse.ReusedGroups != wantReused {
				t.Fatalf("seed %d pass %d: reused %d groups, want %d of %d kept",
					seed, pass, reuse.ReusedGroups, wantReused, len(kept))
			}
			wantReused = len(kept)
			totalSaved += reuse.SavedEvals
		}

		// Three optimizations over two market states later, the cache
		// holds one slot per shard for the one profile used — bounded by
		// the market, not by request count.
		if n := len(cache.groups); n > len(keys) {
			t.Fatalf("seed %d: cache holds %d group slots for %d shards and one profile", seed, n, len(keys))
		}
	}
	if totalSaved == 0 {
		t.Fatal("reuse cache never saved an evaluation across the sweep")
	}
}

// TestConcurrentReoptsShareCache: many concurrent re-optimizations
// sharing one MarketView and one ReuseCache — the serve layer's
// T_m-boundary regime, sessions at four different residual progresses,
// two of each, so both the group tier and the passage tier are filled
// and read concurrently — must all return their reference plan. Run
// under -race this also proves the cache's synchronization.
func TestConcurrentReoptsShareCache(t *testing.T) {
	ctx := context.Background()
	p := app.BT()
	deadline := FastestOnDemand(nil, p).T * 1.5
	m := testMarket(5)
	cache := NewReuseCache()

	prime := Config{Profile: p, Market: m.Capture(), Deadline: deadline, Reuse: cache}
	if _, err := OptimizeContext(ctx, prime); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(m.Keys()[3], []float64{0.4, 0.38}); err != nil {
		t.Fatal(err)
	}
	shared := m.Capture()

	refCfgs := make([]Config, 8)
	want := make([]string, len(refCfgs))
	for i := range refCfgs {
		refCfgs[i] = Config{Profile: p.Scale(1 - 0.1*float64(i%4)), Market: shared, Deadline: deadline}
		ref, err := OptimizeContext(ctx, refCfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fingerprint(ref)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	plans := make([]string, 8)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := refCfgs[i]
			cfg.Reuse = cache
			res, err := OptimizeContext(ctx, cfg)
			if err != nil {
				errs <- err
				return
			}
			plans[i] = fingerprint(res)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, got := range plans {
		if got != want[i] {
			t.Fatalf("concurrent re-opt %d diverged:\n%s\nvs\n%s", i, got, want[i])
		}
	}
}
