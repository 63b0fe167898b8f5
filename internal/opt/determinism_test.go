package opt

import (
	"context"
	"fmt"
	"runtime"
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

// TestOptimizeIgnoresWorkers: the search runs on one goroutine, so at
// GOMAXPROCS 2 every Workers value returns the same Plan, Est, Evals and
// Pruned, and with pruning on or off the plan and estimate are
// byte-identical to the exhaustive search's.
func TestOptimizeIgnoresWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, seed := range []uint64{3, 11, 42} {
		m := testMarket(seed)
		for _, p := range []app.Profile{app.BT(), app.FT()} {
			deadline := FastestOnDemand(nil, p).T * 1.5
			base := Config{Profile: p, Market: m, Deadline: deadline}

			ref := base
			ref.DisablePruning = true
			want, err := OptimizeContext(context.Background(), ref)
			if err != nil {
				t.Fatal(err)
			}
			wantFP := fingerprint(want)

			for _, pruned := range []bool{false, true} {
				var first Result
				for _, workers := range []int{0, 1, 2} {
					cfg := base
					cfg.Workers = workers
					cfg.DisablePruning = !pruned
					got, err := OptimizeContext(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if fp := fingerprint(got); fp != wantFP {
						t.Errorf("seed %d %s workers=%d pruning=%v diverged from exhaustive:\ngot:\n%s\nwant:\n%s",
							seed, p.Name, workers, pruned, fp, wantFP)
					}
					if workers == 0 {
						first = got
					} else if got.Evals != first.Evals || got.Pruned != first.Pruned {
						t.Errorf("seed %d %s workers=%d pruning=%v: evals/pruned %d/%d, workers=0 gave %d/%d",
							seed, p.Name, workers, pruned, got.Evals, got.Pruned, first.Evals, first.Pruned)
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

	cfg := Config{Profile: p, Market: m, Deadline: deadline}
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

// TestSerialCountersDeterministic: Evals and Pruned are part of the API
// contract — two identical calls return identical counters, and the
// deprecated InitialIncumbent, set above or below the optimum, moves
// neither them nor the plan.
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
	for _, seed := range []float64{a.Est.Cost * 0.5, a.Est.Cost, 50} {
		ignored := base
		ignored.InitialIncumbent = seed
		c, err := OptimizeContext(context.Background(), ignored)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(c) != fingerprint(a) || c.Evals != a.Evals || c.Pruned != a.Pruned {
			t.Fatalf("InitialIncumbent %v moved the search: evals %d pruned %d, want %d %d",
				seed, c.Evals, c.Pruned, a.Evals, a.Pruned)
		}
	}
}
