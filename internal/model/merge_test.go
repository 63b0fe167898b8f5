package model_test

import (
	"context"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/model"
	"sompi/internal/opt"
	"sompi/internal/stats"
)

// TestPlanMissMergesOnDemand is the structural gate on the lazy prefix
// stack, in counts rather than time: over the BenchmarkPlanMiss pass (8
// presets × 6 stratified deadlines on sompid's -hours 336 -seed 2015
// market, trailing 96 h, Workers: 1, a ReuseCache warmed at 100 h) the
// levels must merge exactly the 13,406 support points they merged when
// the search still pushed every choice that passed its spot-cost bound,
// and the search's counters must not move. Most leaves never walk: their
// O(1) LeafBound is already above the incumbent, so nothing below them
// is merged. The eager stack's count for the same pushes is logged, not
// gated: it counts pushes, and whole subtrees the search cuts before
// pushing anything left it with 20,222 of the 3,234,484 it once had, so
// a share of it measures the cuts above the walk, not the stack.
func TestPlanMissMergesOnDemand(t *testing.T) {
	snap := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), 336, 2015).Capture()
	view := snap.Window(snap.MinDuration()-96, 96)
	cache := opt.NewReuseCache()
	var profiles []app.Profile
	for _, name := range []string{"BT", "SP", "LU", "FT", "IS", "BTIO", "LAMMPS-32", "LAMMPS-128"} {
		p, ok := app.ByName(name)
		if !ok {
			t.Fatalf("no preset %q", name)
		}
		profiles = append(profiles, p)
		if _, err := opt.OptimizeContext(context.Background(), opt.Config{Profile: p, Market: view, Deadline: 100, Workers: 1, Reuse: cache}); err != nil {
			t.Fatal(err)
		}
	}
	r := stats.NewRNG(1)
	deadlines := make([]float64, 6)
	for s := range deadlines {
		deadlines[s] = 40 + (float64(s)+r.Float64())*80/float64(len(deadlines))
	}

	// pass plans every preset at every deadline once. The first pass also
	// fills the cache's per-profile tiers, as the benchmark's first
	// iteration does; the audited pass is the second, the benchmark's
	// steady state. Its per-plan figures are 181.8 evals (leaves visited
	// plus ranking evaluations) and 100,377.2 pruned; BenchmarkPlanMiss's
	// mean takes in the first pass's 9,032 evals too.
	pass := func() (evals, pruned int) {
		for _, p := range profiles {
			for _, d := range deadlines {
				res, err := opt.OptimizeContext(context.Background(), opt.Config{Profile: p, Market: view, Deadline: d, Workers: 1, Reuse: cache})
				if err != nil {
					t.Fatal(err)
				}
				evals += res.Evals
				pruned += res.Pruned
			}
		}
		return evals, pruned
	}
	for n, want := range [][2]int{{9032, 4818106}, {8726, 4818106}} {
		var stop func() (int, int)
		if n == 1 {
			stop = model.AuditMerges()
			defer stop()
		}
		evals, pruned := pass()
		if evals != want[0] || pruned != want[1] {
			t.Errorf("pass %d: %d evals, %d pruned; pinned %d and %d", n+1, evals, pruned, want[0], want[1])
		}
		if stop == nil {
			continue
		}
		lazy, eager := stop()
		t.Logf("pass %d: merged %d support points; the eager stack merges %d for the same pushes", n+1, lazy, eager)
		if lazy != 13406 {
			t.Errorf("levels merged %d support points, pinned 13406", lazy)
		}
	}
}
