package opt

import (
	"context"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/model"
	"sompi/internal/stats"
)

// BenchmarkOptimize measures one full SOMPI optimization at the paper's
// default parameters (κ=4, 6-level logarithmic grid, 12 candidate
// markets pruned to 8) — the per-window cost of the adaptive algorithm,
// which the paper bounds at <1% of execution time.
func BenchmarkOptimize(b *testing.B) {
	m := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), 24*14, 42)
	p := app.BT()
	deadline := FastestOnDemand(nil, p).T * 1.5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OptimizeContext(context.Background(), Config{Profile: p, Market: m, Deadline: deadline}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeSearch compares the search configurations: the
// exhaustive serial search (the pre-parallel baseline), branch-and-bound
// alone, and branch-and-bound on the full worker pool. All three return
// the same plan (TestOptimizeParallelDeterministic); only the work to
// find it differs.
func BenchmarkOptimizeSearch(b *testing.B) {
	m := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), 24*14, 42)
	p := app.BT()
	deadline := FastestOnDemand(nil, p).T * 1.5
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"serial-exhaustive", Config{Workers: 1, DisablePruning: true}},
		{"serial-pruned", Config{Workers: 1}},
		{"parallel-pruned", Config{Workers: 0}},
	} {
		cfg := bc.cfg
		cfg.Profile, cfg.Market, cfg.Deadline = p, m, deadline
		b.Run(bc.name, func(b *testing.B) {
			var res Result
			var err error
			for i := 0; i < b.N; i++ {
				if res, err = OptimizeContext(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Evals), "evals/op")
			b.ReportMetric(float64(res.Pruned), "pruned/op")
		})
	}
}

// BenchmarkPlanMiss is the ledger's plan-miss pass in-process: every app
// preset at six stratified deadlines in U[40,120) h on the plan-miss
// training view, Workers: 1, against a ReuseCache warmed the way the
// workload's warm-up warms sompid's (every preset at 100 h). One op is
// one pass of 48 plans; ns/plan, evals/plan and pruned/plan are the
// numbers to compare across a search change.
func BenchmarkPlanMiss(b *testing.B) {
	view := planMissMarket()
	cache := NewReuseCache()
	var profiles []app.Profile
	for _, name := range planMissPresets {
		p, ok := app.ByName(name)
		if !ok {
			b.Fatalf("no preset %q", name)
		}
		profiles = append(profiles, p)
		if _, err := OptimizeContext(context.Background(), Config{Profile: p, Market: view, Deadline: 100, Workers: 1, Reuse: cache}); err != nil {
			b.Fatal(err)
		}
	}
	deadlines := planMissDeadlines(stats.NewRNG(1), 6)
	plans, evals, pruned := 0, 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range profiles {
			for _, d := range deadlines {
				res, err := OptimizeContext(context.Background(), Config{Profile: p, Market: view, Deadline: d, Workers: 1, Reuse: cache})
				if err != nil {
					b.Fatal(err)
				}
				plans++
				evals += res.Evals
				pruned += res.Pruned
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(plans), "ns/plan")
	b.ReportMetric(float64(evals)/float64(plans), "evals/plan")
	b.ReportMetric(float64(pruned)/float64(plans), "pruned/plan")
}

// BenchmarkOptimizeKappa sweeps κ, the paper's Section 5.2 overhead
// study, as a benchmark.
func BenchmarkOptimizeKappa(b *testing.B) {
	m := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), 24*14, 42)
	p := app.BT()
	deadline := FastestOnDemand(nil, p).T * 1.5
	for _, kappa := range []int{1, 2, 3, 4} {
		b.Run(map[int]string{1: "k1", 2: "k2", 3: "k3", 4: "k4"}[kappa], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := OptimizeContext(context.Background(), Config{
					Profile: p, Market: m, Deadline: deadline, Kappa: kappa,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPhi measures the F = φ(P) interval computation (cached MTTF).
func BenchmarkPhi(b *testing.B) {
	m := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), 24*14, 42)
	g := model.NewGroup(app.BT(), cloud.M1Medium, cloud.ZoneA,
		m.Trace(cloud.M1Medium.Name, cloud.ZoneA))
	grid := BidGrid(g, 6)
	for _, bid := range grid {
		Phi(g, bid) // warm MTTF cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Phi(g, grid[i%len(grid)])
	}
}
