package opt

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/model"
	"sompi/internal/trace"
)

// fingerprint renders a plan and estimate byte-for-byte so equality
// between search configurations can be asserted exactly, not within a
// tolerance.
func fingerprint(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost=%x time=%x spot=%x od=%x pfail=%x emin=%x\n",
		res.Est.Cost, res.Est.Time, res.Est.CostSpot, res.Est.CostOD,
		res.Est.PAllFail, res.Est.EMinRatio)
	for _, gp := range res.Plan.Groups {
		fmt.Fprintf(&b, "group=%s m=%d bid=%x interval=%x\n",
			gp.Group.Key, gp.Group.M, gp.Bid, gp.Interval)
	}
	fmt.Fprintf(&b, "recovery=%s m=%d t=%x\n",
		res.Plan.Recovery.Instance.Name, res.Plan.Recovery.M, res.Plan.Recovery.T)
	return b.String()
}

// TestOptimizeParallelDeterministic is the tentpole guarantee: the
// parallel search returns a plan and estimate byte-identical to the
// serial path at every worker count, with and without pruning.
func TestOptimizeParallelDeterministic(t *testing.T) {
	for _, seed := range []uint64{3, 11, 42} {
		m := testMarket(seed)
		for _, p := range []app.Profile{app.BT(), app.FT()} {
			deadline := FastestOnDemand(nil, p).T * 1.5
			base := Config{Profile: p, Market: m, Deadline: deadline}

			ref := base
			ref.Workers = 1
			ref.DisablePruning = true
			want, err := OptimizeContext(context.Background(), ref)
			if err != nil {
				t.Fatal(err)
			}
			wantFP := fingerprint(want)

			for _, workers := range []int{1, 2, 8} {
				for _, pruned := range []bool{false, true} {
					cfg := base
					cfg.Workers = workers
					cfg.DisablePruning = !pruned
					got, err := OptimizeContext(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if fp := fingerprint(got); fp != wantFP {
						t.Errorf("seed %d %s workers=%d pruning=%v diverged from serial:\ngot:\n%s\nwant:\n%s",
							seed, p.Name, workers, pruned, fp, wantFP)
					}
				}
			}
		}
	}
}

// TestOptimizePruningCounts asserts branch-and-bound actually fires at
// the paper's default parameters and that disabling it reports zero.
func TestOptimizePruningCounts(t *testing.T) {
	m := testMarket(42)
	p := app.BT()
	deadline := FastestOnDemand(nil, p).T * 1.5

	cfg := Config{Profile: p, Market: m, Deadline: deadline, Workers: 1}
	res, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned == 0 {
		t.Error("branch-and-bound never pruned at default parameters")
	}

	cfg.DisablePruning = true
	full, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Pruned != 0 {
		t.Errorf("DisablePruning still reported %d pruned evals", full.Pruned)
	}
	if res.Evals+res.Pruned > full.Evals {
		t.Errorf("evals %d + pruned %d exceed the exhaustive count %d",
			res.Evals, res.Pruned, full.Evals)
	}
	if res.Evals >= full.Evals {
		t.Errorf("pruning did not reduce evaluations: %d vs %d", res.Evals, full.Evals)
	}
}

// TestOptimizeUnknownCandidateErrors covers the buildGroups fix: a stale
// Candidates entry must surface as a diagnosable error, not a panic.
func TestOptimizeUnknownCandidateErrors(t *testing.T) {
	m := testMarket(1)
	p := app.BT()
	deadline := FastestOnDemand(nil, p).T * 1.5

	cfg := smallConfig(m, p, deadline)
	cfg.Candidates = []cloud.MarketKey{{Type: "no-such-type", Zone: cloud.ZoneA}}
	if _, err := OptimizeContext(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "not in catalog") {
		t.Errorf("unknown type: err = %v, want catalog error", err)
	}

	cfg.Candidates = []cloud.MarketKey{{Type: cloud.M1Medium.Name, Zone: "no-such-zone"}}
	if _, err := OptimizeContext(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "no price history") {
		t.Errorf("unknown zone: err = %v, want missing-trace error", err)
	}
}

// TestPhiNeverExceedsT covers the minInterval clamp fix: for runs
// shorter than the 0.5h floor, Phi must clamp to T rather than return an
// interval above it (which would silently disable checkpointing).
func TestPhiNeverExceedsT(t *testing.T) {
	prices := make([]float64, 240)
	for i := range prices {
		prices[i] = 0.02
		if i%40 == 0 {
			prices[i] = 1.0 // periodic spikes give a finite MTTF
		}
	}
	tr := trace.New(trace.DefaultStep, prices)
	for _, T := range []int{0, 1, 2} {
		g := &model.Group{T: T, O: 0.0001, R: 0.01, Hist: tr}
		// A bid below the calm price fails immediately (MTTF 0, φ = 0),
		// the case where the old 0.5h floor overshot a T=0 run.
		for _, bid := range []float64{0.01, 0.05, 0.5} {
			if f := Phi(g, bid); f > float64(T) {
				t.Errorf("Phi(T=%d, bid=%v) = %v exceeds T", T, bid, f)
			}
		}
	}
}
