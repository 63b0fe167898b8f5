package opt

import (
	"context"
	"sync"
	"testing"

	"sompi/internal/app"
	"sompi/internal/model"
)

// TestWorkUnitsCoverSpaceExactly: the balanced units must partition the
// subset space — every leaf in exactly one unit. The exhaustive serial
// search's Evals count is the ground truth: 1 baseline evaluation plus
// one per leaf, which must equal buildUnits' own size accounting.
func TestWorkUnitsCoverSpaceExactly(t *testing.T) {
	m := testMarket(7)
	cfg := smallConfig(m, app.BT(), 60)
	cfg.Workers = 1
	cfg.DisablePruning = true
	cfg.Candidates = m.Keys()[:4] // = MaxGroups: no ranking evals
	res, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the unit set the search used and sum its size estimates.
	groups, _, err := buildGroups(cfg.withDefaults(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	gridLen := make([]int, len(groups))
	minSpot := make([]float64, len(groups))
	for i, g := range groups {
		gridLen[i] = len(BidGrid(g, cfg.withDefaults().GridLevels))
	}
	kappa := cfg.Kappa
	if kappa > len(groups) {
		kappa = len(groups)
	}
	units := buildUnits(gridLen, minSpot, kappa)
	total := 0.0
	for _, u := range units {
		total += u.est
	}
	if got := float64(res.Evals - 1); got != total {
		t.Fatalf("units account for %v leaves, exhaustive search evaluated %v", total, got)
	}
}

// TestScalingSmoke is the CI fast-path: the unit splitter must produce a
// balanced decomposition (the old first-index partitioning put the
// majority of the space in partition 0), and a 2-worker search must
// return the byte-identical plan of a 1-worker search on a small market.
func TestScalingSmoke(t *testing.T) {
	// The bench shape: 12 markets x 6 grid points, kappa 4.
	gridLen := make([]int, 12)
	minSpot := make([]float64, 12)
	for i := range gridLen {
		gridLen[i] = 6
	}
	units := buildUnits(gridLen, minSpot, 4)
	if len(units) < 2*len(gridLen) {
		t.Fatalf("only %d units for 12 groups: splitter did not subdivide", len(units))
	}
	total, largest := 0.0, 0.0
	for _, u := range units {
		total += u.est
		if u.est > largest {
			largest = u.est
		}
	}
	// First-index partition 0 holds ~46% of this space; balanced units
	// must stay far below that.
	if largest > 0.10*total {
		t.Fatalf("largest unit holds %.1f%% of the space, want <= 10%%", 100*largest/total)
	}

	m := testMarket(3)
	cfg := smallConfig(m, app.BT(), 60)
	cfg.Workers = 1
	serial, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	par, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(serial) != fingerprint(par) {
		t.Fatalf("2-worker plan differs from serial:\n%s\nvs\n%s", fingerprint(par), fingerprint(serial))
	}
}

// TestWarmDeltaByteIdentical is the seed-swept property test: after the
// market ticks, a warm-started (InitialIncumbent from the previous
// plan) and delta-evaluated (ReuseCache from the previous optimization)
// search must return plans byte-identical to a cold Workers: 1 search —
// at every worker count — while doing strictly less evaluation work.
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
		cfg0 := Config{Profile: p, Market: m.Snapshot(), Deadline: deadline, Workers: 1, Reuse: cache}
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

		coldCfg := Config{Profile: p, Market: m.Snapshot(), Deadline: deadline, Workers: 1}
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
		for _, workers := range []int{1, 3} {
			warmCfg.Workers = workers
			warm, err := OptimizeContext(ctx, warmCfg)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(warm) != fingerprint(cold) {
				t.Fatalf("seed %d workers %d: warm plan differs from cold:\n%s\nvs\n%s",
					seed, workers, fingerprint(warm), fingerprint(cold))
			}
			if workers == 1 && !warm.WarmRetried && warm.Evals > cold.Evals {
				// Serial warm search visits a subset of the cold visit set
				// (the tighter incumbent only removes work).
				t.Fatalf("seed %d: warm search evaluated more than cold: %d > %d", seed, warm.Evals, cold.Evals)
			}
			if warm.ReusedGroups != wantReused {
				t.Fatalf("seed %d workers %d: reused %d groups, want %d of %d kept",
					seed, workers, warm.ReusedGroups, wantReused, len(kept))
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
	cfg.Workers = 1
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

// TestSerialCountersDeterministic: at Workers: 1, Evals and Pruned are
// part of the API contract — two identical calls return identical
// counters, with and without a warm-start seed.
func TestSerialCountersDeterministic(t *testing.T) {
	m := testMarket(42)
	base := smallConfig(m, app.BT(), 60)
	base.Workers = 1
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

	prime := Config{Profile: p, Market: view, Deadline: deadline, Workers: 1, Reuse: cache}
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
		refCfgs[i] = Config{Profile: p.Scale(1 - 0.1*float64(i%4)), Market: shared, Deadline: deadline, Workers: 1}
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
			cfg.Workers = 2
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
	cfg.Workers = 1
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
