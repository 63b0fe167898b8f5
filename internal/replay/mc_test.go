package replay

import (
	"context"
	"sync"
	"testing"

	"sompi/internal/cloud"
	"sompi/internal/model"
)

// mcFingerprint captures every statistic the harness reports, at full
// float precision, so worker-count independence can be asserted exactly.
// monteCarlo runs MonteCarloContext to completion, failing the test on
// a rejected config.
func monteCarlo(t *testing.T, st Strategy, r *Runner, cfg MCConfig) MCStats {
	t.Helper()
	stats, err := MonteCarloContext(context.Background(), st, r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func mcFingerprint(t *testing.T, st MCStats) [12]float64 {
	t.Helper()
	return [12]float64{
		float64(st.Runs), float64(st.Failures), float64(st.DeadlineMisses),
		st.Cost.Mean(), st.Cost.Var(), st.Cost.Min(), st.Cost.Max(), st.Cost.Median(),
		st.Hours.Mean(), st.Hours.Var(), st.Hours.Quantile(0.9), st.MissRate(),
	}
}

// TestMonteCarloWorkerCountIndependent is the parallel-replay guarantee:
// for a fixed seed, every reported statistic is bit-identical whether the
// replications run serially or on any number of workers.
func TestMonteCarloWorkerCountIndependent(t *testing.T) {
	r := runner(spikeMarket(0.02, 2.0, 300, 4, 2000))
	g := groupFor(r, cloud.M1Medium, cloud.ZoneA)
	strat := FixedPlan{
		Label: "fixed",
		Provider: func(r *Runner, deadline, start float64) (model.Plan, error) {
			return model.Plan{
				Groups:   []model.GroupPlan{{Group: g, Bid: 0.05, Interval: float64(g.T)}},
				Recovery: model.NewOnDemand(r.Profile, cloud.CC28XLarge),
			}, nil
		},
	}
	cfg := MCConfig{Deadline: 50, Runs: 25, Seed: 7, Workers: 1}
	want := mcFingerprint(t, monteCarlo(t, strat, r, cfg))
	// 3 does not divide 25 (uneven chunks) and 8 exceeds GOMAXPROCS on
	// small machines (oversubscription) — both must still match serial.
	for _, workers := range []int{1, 3, 8, 64} {
		cfg.Workers = workers
		if got := mcFingerprint(t, monteCarlo(t, strat, r, cfg)); got != want {
			t.Errorf("workers=%d: stats diverged from serial\ngot  %v\nwant %v", workers, got, want)
		}
	}
}

// TestMonteCarloStartsBoundedByShortestTrace covers the min-duration fix:
// start points must leave room before the end of the *shortest* trace in
// the market, not whatever trace an arbitrary map key happens to pick.
func TestMonteCarloStartsBoundedByShortestTrace(t *testing.T) {
	traces := flatTraces(0.02, 2000)
	// Truncate a single market to 500h; every other trace keeps 2000h.
	short := cloud.MarketKey{Type: cloud.C3XLarge.Name, Zone: cloud.ZoneB}
	tr := traces[short]
	tr.Prices = tr.Prices[:int(500/tr.Step)]
	r := runner(cloud.NewMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), traces))

	const deadline = 50.0
	var mu sync.Mutex
	var starts []float64
	strat := FixedPlan{
		Label: "record",
		Provider: func(r *Runner, _, start float64) (model.Plan, error) {
			mu.Lock()
			starts = append(starts, start)
			mu.Unlock()
			return model.Plan{Recovery: model.NewOnDemand(r.Profile, cloud.CC28XLarge)}, nil
		},
	}
	monteCarlo(t, strat, r, MCConfig{Deadline: deadline, Runs: 40, Seed: 3})

	hi := 500 - 3*deadline // bound imposed by the truncated trace
	if len(starts) != 40 {
		t.Fatalf("recorded %d starts, want 40", len(starts))
	}
	for _, s := range starts {
		if s > hi {
			t.Errorf("start %.1fh ignores the shortest trace (must be ≤ %.1fh)", s, hi)
		}
	}
}
