package opt

import (
	"context"
	"math"
	"sync"
	"testing"

	"sompi/internal/app"
	"sompi/internal/model"
)

// TestWorkUnitsCoverSpaceExactly: the units — one per first group —
// must partition the subset space, every leaf in exactly one unit, and
// run in ascending spot-cost floor, ties in index order. The exhaustive
// serial search's Evals count is the ground truth: 1 baseline evaluation
// plus one per leaf, which must equal the units' leaves summed, each
// first group's grid times every extension by up to κ−1 higher groups.
func TestWorkUnitsCoverSpaceExactly(t *testing.T) {
	m := testMarket(7)
	cfg := smallConfig(m, app.BT(), 60)
	cfg.DisablePruning = true
	cfg.Candidates = m.Keys()[:4] // = MaxGroups: no ranking evals
	res, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	groups, _, err := buildGroups(cfg.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	gridLen := make([]int, len(groups))
	for i, g := range groups {
		gridLen[i] = len(BidGrid(g, cfg.withDefaults().GridLevels))
	}
	kappa := cfg.Kappa
	if kappa > len(groups) {
		kappa = len(groups)
	}
	// ext(start, slots): the leaf factor of every extension by at most
	// slots groups drawn from start on, the empty one included.
	var ext func(start, slots int) int
	ext = func(start, slots int) int {
		n := 1
		for j := start; slots > 0 && j < len(gridLen); j++ {
			n += gridLen[j] * ext(j+1, slots-1)
		}
		return n
	}
	// Floors with a tie, out of index order.
	minSpot := []float64{3, 1, 3, 2}[:len(groups)]
	order := dispatchOrder(minSpot)
	seen := make([]bool, len(groups))
	total := 0
	for k, first := range order {
		if seen[first] {
			t.Fatalf("order %v runs unit %d twice", order, first)
		}
		seen[first] = true
		if k > 0 {
			if prev := order[k-1]; minSpot[prev] > minSpot[first] || minSpot[prev] == minSpot[first] && prev > first {
				t.Fatalf("order %v is not ascending in floors %v, ties by index", order, minSpot)
			}
		}
		total += gridLen[first] * ext(first+1, kappa-1)
	}
	if got := res.Evals - 1; len(order) != len(groups) || got != total {
		t.Fatalf("%d units account for %d leaves, exhaustive search evaluated %d", len(order), total, got)
	}
}

// TestWarmDeltaByteIdentical is the seed-swept property test: after the
// market ticks, a warm-started (InitialIncumbent from the previous
// plan) and delta-evaluated (ReuseCache from the previous optimization)
// search must return plans byte-identical to a cold search while doing
// strictly less evaluation work.
// It also pins what the cache is: prepared state for exactly the
// un-ticked shards, ranking evaluations moved out of Evals and nothing
// else, and one slot per (shard, profile) however many runs share it.
func TestWarmDeltaByteIdentical(t *testing.T) {
	ctx := context.Background()
	p := app.BT()
	deadline := FastestOnDemand(nil, p).T * 1.5
	totalSaved := 0
	sawWarm := false
	for _, seed := range []uint64{1, 2, 3, 11, 42} {
		m := testMarket(seed)
		cache := NewReuseCache()
		cfg0 := Config{Profile: p, Market: m.Snapshot(), Deadline: deadline, Reuse: cache}
		res0, err := OptimizeContext(ctx, cfg0)
		if err != nil {
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

		coldCfg := Config{Profile: p, Market: m.Snapshot(), Deadline: deadline}
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

		warmCfg := coldCfg
		warmCfg.Reuse = cache
		if hint, ok := WarmBound(warmCfg, res0.Plan); ok {
			warmCfg.InitialIncumbent = hint
			sawWarm = true
		}
		// The first warm run finds only the un-ticked shards in the cache
		// and registers the two ticked ones; the second finds them all.
		wantReused := unticked
		for pass := 1; pass <= 2; pass++ {
			warm, err := OptimizeContext(ctx, warmCfg)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(warm) != fingerprint(cold) {
				t.Fatalf("seed %d pass %d: warm plan differs from cold:\n%s\nvs\n%s",
					seed, pass, fingerprint(warm), fingerprint(cold))
			}
			if !warm.WarmRetried && warm.Evals > cold.Evals {
				// The warm search visits a subset of the cold visit set
				// (the tighter incumbent only removes work).
				t.Fatalf("seed %d: warm search evaluated more than cold: %d > %d", seed, warm.Evals, cold.Evals)
			}
			if warm.ReusedGroups != wantReused {
				t.Fatalf("seed %d pass %d: reused %d groups, want %d of %d kept",
					seed, pass, warm.ReusedGroups, wantReused, len(kept))
			}
			wantReused = len(kept)
			totalSaved += warm.SavedEvals
		}

		// Reuse without a warm seed leaves the serial search alone: the
		// cache can only move ranking evaluations from Evals to SavedEvals.
		reuseCfg := coldCfg
		reuseCfg.Reuse = cache
		reuse, err := OptimizeContext(ctx, reuseCfg)
		if err != nil {
			t.Fatal(err)
		}
		if reuse.Pruned != cold.Pruned || reuse.Evals+reuse.SavedEvals != cold.Evals {
			t.Fatalf("seed %d: reuse-only counters (evals %d + saved %d, pruned %d) != cold (evals %d, pruned %d)",
				seed, reuse.Evals, reuse.SavedEvals, reuse.Pruned, cold.Evals, cold.Pruned)
		}

		// Four optimizations over two market states later, the cache holds
		// one slot per shard for the one profile used — bounded by the
		// market, not by request count.
		if n := len(cache.groups); n > len(keys) {
			t.Fatalf("seed %d: cache holds %d group slots for %d shards and one profile", seed, n, len(keys))
		}
	}
	if !sawWarm {
		t.Fatal("WarmBound never produced a seed across the sweep")
	}
	if totalSaved == 0 {
		t.Fatal("reuse cache never saved an evaluation across the sweep")
	}
}

// TestInadmissibleIncumbentRetriesCold: a hint below the true optimum
// must be detected (nothing achieves it) and answered with a cold
// retry, preserving byte-identical plans.
func TestInadmissibleIncumbentRetriesCold(t *testing.T) {
	m := testMarket(11)
	cfg := smallConfig(m, app.BT(), 60)
	cold, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Plan.Groups) == 0 {
		t.Skip("pure on-demand optimum; no spot cost to undercut")
	}

	bad := cfg
	bad.InitialIncumbent = cold.Est.Cost * 0.5
	warm, err := OptimizeContext(context.Background(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmRetried {
		t.Fatalf("inadmissible hint %v (optimum %v) not retried", bad.InitialIncumbent, cold.Est.Cost)
	}
	if fingerprint(warm) != fingerprint(cold) {
		t.Fatalf("retried plan differs from cold:\n%s\nvs\n%s", fingerprint(warm), fingerprint(cold))
	}

	// An admissible hint — the optimum itself — must not trigger a retry.
	good := cfg
	good.InitialIncumbent = cold.Est.Cost
	warm, err = OptimizeContext(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmRetried {
		t.Fatal("exact-optimum hint spuriously retried")
	}
	if fingerprint(warm) != fingerprint(cold) {
		t.Fatalf("warm plan differs from cold:\n%s\nvs\n%s", fingerprint(warm), fingerprint(cold))
	}
}

// TestSerialCountersDeterministic: Evals and Pruned are part of the API
// contract — two identical calls return identical
// counters, with and without a warm-start seed.
func TestSerialCountersDeterministic(t *testing.T) {
	m := testMarket(42)
	base := smallConfig(m, app.BT(), 60)
	a, err := OptimizeContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OptimizeContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if a.Evals != b.Evals || a.Pruned != b.Pruned || a.SavedEvals != b.SavedEvals {
		t.Fatalf("serial counters drifted: (%d,%d,%d) vs (%d,%d,%d)",
			a.Evals, a.Pruned, a.SavedEvals, b.Evals, b.Pruned, b.SavedEvals)
	}

	warm := base
	warm.InitialIncumbent = 50
	a, err = OptimizeContext(context.Background(), warm)
	if err != nil {
		t.Fatal(err)
	}
	b, err = OptimizeContext(context.Background(), warm)
	if err != nil {
		t.Fatal(err)
	}
	if a.Evals != b.Evals || a.Pruned != b.Pruned || a.WarmRetried != b.WarmRetried {
		t.Fatalf("warm serial counters drifted: (%d,%d,%v) vs (%d,%d,%v)",
			a.Evals, a.Pruned, a.WarmRetried, b.Evals, b.Pruned, b.WarmRetried)
	}
}

// TestConcurrentWarmReoptsShareCache: many concurrent warm-started
// re-optimizations sharing one MarketView and one ReuseCache — the
// serve layer's T_m-boundary regime, sessions at four different residual
// progresses, two of each, so both the group tier and the passage tier
// are filled and read concurrently — must all return their reference
// plan. Run under -race this also proves the cache's synchronization.
func TestConcurrentWarmReoptsShareCache(t *testing.T) {
	ctx := context.Background()
	p := app.BT()
	deadline := FastestOnDemand(nil, p).T * 1.5
	m := testMarket(5)
	cache := NewReuseCache()
	view := m.Snapshot()

	prime := Config{Profile: p, Market: view, Deadline: deadline, Reuse: cache}
	res0, err := OptimizeContext(ctx, prime)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(m.Keys()[3], []float64{0.4, 0.38}); err != nil {
		t.Fatal(err)
	}
	shared := m.Snapshot()

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
			if hint, ok := WarmBound(cfg, res0.Plan); ok {
				cfg.InitialIncumbent = hint
			}
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

// TestWarmBoundIsAchievedCost: the seed WarmBound returns must equal the
// search's own evaluation of the same plan — it is a cost the search can
// achieve, which is what makes it admissible.
func TestWarmBoundIsAchievedCost(t *testing.T) {
	m := testMarket(3)
	cfg := smallConfig(m, app.BT(), 60)
	res, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Groups) == 0 {
		t.Skip("pure on-demand optimum")
	}
	hint, ok := WarmBound(cfg, res.Plan)
	if !ok {
		t.Fatal("WarmBound rejected the optimizer's own plan")
	}
	if hint != res.Est.Cost {
		t.Fatalf("WarmBound %v != optimizer's cost %v", hint, res.Est.Cost)
	}

	// A plan whose market vanished from the candidate view is rejected.
	var none model.Plan
	if _, ok := WarmBound(cfg, none); ok {
		t.Fatal("WarmBound accepted an empty plan")
	}
}

// TestWarmBoundSourcesPassageTier: with a bound ReuseCache, WarmBound
// re-prices each previous-plan bid through the shard's passage tier. The
// seed must equal the Reuse: nil seed to the bit, and the tier must sweep
// each (shard, bid) of the previous plans at most once, however many
// residual profiles re-price them.
func TestWarmBoundSourcesPassageTier(t *testing.T) {
	ctx := context.Background()
	view := planMissWindow(96)
	cache := NewReuseCache()
	distinct := map[passageKey]bool{}
	seeded := 0
	for _, name := range planMissPresets {
		p, _ := app.ByName(name)
		res, err := OptimizeContext(ctx, Config{Profile: p, Market: view, Deadline: 80})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, gp := range res.Plan.Groups {
			distinct[passageKey{gp.Group.Key, math.Float64bits(gp.Bid)}] = true
		}
		for _, frac := range []float64{1, 0.73, 0.31} {
			cold := Config{Profile: p.Scale(frac), Market: view, Deadline: 80}
			want, wantOK := WarmBound(cold, res.Plan)
			reused := cold
			reused.Reuse = cache
			got, gotOK := WarmBound(reused, res.Plan)
			if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s ×%v: WarmBound through the passage tier = (%v, %v), cold = (%v, %v)",
					name, frac, got, gotOK, want, wantOK)
			}
			if gotOK {
				seeded++
			}
		}
	}
	swept := cache.sweeps.Load()
	if swept == 0 || swept > int64(len(distinct)) {
		t.Fatalf("the tier derived %d sweeps for %d distinct (shard, bid) pairs", swept, len(distinct))
	}
	if seeded == 0 {
		t.Fatal("no previous plan re-priced to a seed; the test compared only rejections")
	}
	t.Logf("%d seeds re-priced bit-identically over %d (shard, bid) sweeps", seeded, swept)
}
