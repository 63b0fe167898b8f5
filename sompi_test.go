package sompi

import (
	"context"
	"errors"
	"testing"
)

// The facade tests exercise the public API end to end the way a
// downstream user would (examples/quickstart mirrors this flow).

func TestFacadeEndToEnd(t *testing.T) {
	market := GenerateMarket(24*10, 1)
	bt := WorkloadBT()

	var baseline float64
	for _, it := range DefaultCatalog() {
		if h := EstimateHours(bt, it); baseline == 0 || h < baseline {
			baseline = h
		}
	}
	if baseline <= 0 {
		t.Fatal("no baseline time")
	}

	res, err := OptimizeContext(context.Background(), Config{
		Profile:  bt,
		Market:   market.Window(0, 96),
		Deadline: baseline * 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Est.Cost <= 0 || res.Est.Time <= 0 {
		t.Fatalf("degenerate estimate %+v", res.Est)
	}

	// Evaluate is consistent with the optimizer's own estimate.
	est := Evaluate(res.Plan)
	if est.Cost != res.Est.Cost {
		t.Fatalf("Evaluate disagrees with Optimize: %v vs %v", est.Cost, res.Est.Cost)
	}

	runner := &Runner{Market: market, Profile: bt}
	st, err := MonteCarloContext(context.Background(), NewSOMPI(market), runner, MCConfig{
		Deadline: baseline * 1.5, Runs: 2, Seed: 1,
	})
	if err != nil || st.Runs != 2 {
		t.Fatalf("MonteCarlo ran %d times (err %v)", st.Runs, err)
	}
	if st.Cost.Mean() <= 0 {
		t.Fatal("no cost recorded")
	}
}

func TestWorkloadsComplete(t *testing.T) {
	ws := Workloads()
	if len(ws) != 8 {
		t.Fatalf("%d workloads, want 8 (6 NPB + 2 LAMMPS)", len(ws))
	}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	if len(Experiments()) != 14 {
		t.Fatalf("%d experiments, want 14 (13 paper artifacts + tournament)", len(Experiments()))
	}
	if _, err := ExperimentByID("fig5"); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyConstructorsProduceDistinctNames(t *testing.T) {
	m := GenerateMarket(24*5, 2)
	names := map[string]bool{}
	for _, s := range []Strategy{
		NewSOMPI(m), NewBaseline(), NewOnDemand(),
		NewMarathe(m), NewMaratheOpt(m), NewSpotInf(m), NewSpotAvg(m),
	} {
		if names[s.Name()] {
			t.Errorf("duplicate strategy name %q", s.Name())
		}
		names[s.Name()] = true
	}
}

// TestFacadeV1ContextAPI exercises the v1 surface: context-aware entry
// points, Config knobs, typed sentinel errors and the session vehicle —
// the shape examples/quickstart teaches.
func TestFacadeV1ContextAPI(t *testing.T) {
	market := GenerateMarket(24*10, 1)
	bt := WorkloadBT()
	deadline := EstimateHours(bt, DefaultCatalog()[0]) // generous

	res, err := OptimizeContext(context.Background(), Config{
		Profile: bt, Market: market.Window(0, 96), Deadline: deadline * 3,
		Workers: 1, Kappa: 2, GridLevels: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Groups) > 2 {
		t.Fatalf("Kappa 2 produced %d groups", len(res.Plan.Groups))
	}

	// Typed errors surface through the facade.
	if _, err := OptimizeContext(context.Background(), Config{
		Profile: bt, Market: market, Deadline: -1,
	}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("negative deadline: %v, want ErrInvalidConfig", err)
	}
	if _, err := MonteCarloContext(context.Background(), NewBaseline(),
		&Runner{Market: market, Profile: bt},
		MCConfig{Deadline: 10, Runs: 0}); !errors.Is(err, ErrMCInvalidConfig) {
		t.Fatalf("zero runs: %v, want ErrMCInvalidConfig", err)
	}

	// Cancellation propagates.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimizeContext(cancelled, Config{
		Profile: bt, Market: market.Window(0, 96), Deadline: deadline * 3,
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled optimize: %v, want context.Canceled", err)
	}

	// Market ingestion and sessions through the facade.
	if market.Version() != 1 {
		t.Fatalf("fresh market version %d, want 1", market.Version())
	}
	if _, err := market.Append(MarketKey{Type: "nope", Zone: "nowhere"}, nil); err == nil {
		t.Fatal("append to unknown market succeeded")
	}
	sess := NewSession(&Runner{Market: market, Profile: bt}, deadline*3, 96)
	sess.Advance(res.Plan, 1)
	if sess.Windows != 1 || sess.Elapsed <= 0 {
		t.Fatalf("session did not advance: %+v", sess)
	}
}

// TestFacadeStrategyCatalog exercises the strategy surface: the registry
// listing, the default strategy's parity with OptimizeContext, named
// strategies with typed errors, scenarios and a tiny deterministic
// tournament.
func TestFacadeStrategyCatalog(t *testing.T) {
	ds := Strategies()
	if len(ds) < 4 || ds[0].Name != "sompi" {
		t.Fatalf("Strategies() = %v, want >=4 with sompi first", ds)
	}
	if len(Scenarios()) < 4 {
		t.Fatalf("only %d scenarios", len(Scenarios()))
	}
	if _, err := NewStrategy("nope", nil); !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("unknown strategy: %v, want ErrUnknownStrategy", err)
	}

	market := GenerateMarket(24*10, 1)
	bt := WorkloadBT()
	deadline := EstimateHours(bt, DefaultCatalog()[0]) * 3
	view := market.Window(0, 96)
	knobs := map[string]float64{"kappa": 2, "grid_levels": 3, "max_groups": 3}

	defaultStrategy, err := NewStrategy("sompi", knobs)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := defaultStrategy.Plan(context.Background(), view, Workload{Profile: bt}, Deadline{Hours: deadline})
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeContext(context.Background(), Config{
		Profile: bt, Market: view, Deadline: deadline,
		Kappa: 2, GridLevels: 3, MaxGroups: 3,
	})
	if err != nil || p.Est != res.Est {
		t.Fatalf("sompi strategy disagrees with OptimizeContext: %+v vs %+v (err %v)", p.Est, res.Est, err)
	}

	// A named strategy replays through the standard Monte Carlo engine.
	st, err := NewStrategy("noft", nil)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarloContext(context.Background(), ReplayStrategy(st, market, 96),
		&Runner{Market: market, Profile: bt}, MCConfig{Deadline: deadline, Runs: 2, Seed: 1})
	if err != nil || mc.Runs != 2 || mc.Cost.Mean() <= 0 {
		t.Fatalf("noft replay stats %+v", mc)
	}

	rep, err := Tournament(context.Background(), TournamentConfig{
		Workloads:       []string{"BT"},
		Scenarios:       []string{"realistic", "per-second"},
		DeadlineFactors: []float64{2},
		Runs:            2,
		Hours:           150,
		Seed:            3,
		Params:          map[string]map[string]float64{"sompi": knobs, "adaptive-ckpt": knobs},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rankings) != len(ds) || len(rep.Cells) != len(ds)*2 {
		t.Fatalf("tournament shape: %d rankings, %d cells", len(rep.Rankings), len(rep.Cells))
	}
}
