package opt

import (
	"context"
	"errors"
	"math"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/model"
)

func testMarket(seed uint64) *cloud.Market {
	return cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), 24*14, seed)
}

// smallConfig keeps optimization cheap for unit tests.
func smallConfig(m *cloud.Market, p app.Profile, deadline float64) Config {
	return Config{
		Profile:    p,
		Market:     m,
		Deadline:   deadline,
		Kappa:      2,
		GridLevels: 4,
		MaxGroups:  4,
	}
}

func TestSelectOnDemandPicksCheapestFeasible(t *testing.T) {
	p := app.BT()
	// Generous deadline: every type is feasible, so the cheapest fleet
	// (m1.small for compute-intensive BT) must win.
	od, err := SelectOnDemand(cloud.DefaultCatalog(), p, 1000, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if od.Instance.Name != cloud.M1Small.Name {
		t.Errorf("loose deadline picked %s, want m1.small", od.Instance.Name)
	}

	// Very tight deadline (2% over the fastest time): only the fastest
	// type fits.
	fast := FastestOnDemand(cloud.DefaultCatalog(), p)
	od, err = SelectOnDemand(cloud.DefaultCatalog(), p, fast.T*1.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	if od.Instance.Name != fast.Instance.Name {
		t.Errorf("tight deadline picked %s, want %s", od.Instance.Name, fast.Instance.Name)
	}
}

func TestOptimizeRelaxesSlackUnderTightDeadline(t *testing.T) {
	// 1.05x the fastest time is infeasible at 20% slack but must still
	// produce a plan (the paper evaluates exactly this deadline).
	m := testMarket(11)
	p := app.BT()
	fast := FastestOnDemand(cloud.DefaultCatalog(), p)
	cfg := smallConfig(m, p, fast.T*1.05)
	cfg.Slack = DefaultSlack
	res, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("tight deadline should relax slack, got %v", err)
	}
	if res.Est.Time > fast.T*1.05 {
		t.Errorf("expected time %v exceeds tight deadline %v", res.Est.Time, fast.T*1.05)
	}
}

func TestSelectOnDemandSlackShrinksBudget(t *testing.T) {
	p := app.BT()
	fast := FastestOnDemand(cloud.DefaultCatalog(), p)
	// Deadline exactly at the fastest time: feasible without slack,
	// infeasible with 20% slack.
	if _, err := SelectOnDemand(cloud.DefaultCatalog(), p, fast.T, 0); err != nil {
		t.Fatalf("zero slack should be feasible: %v", err)
	}
	if _, err := SelectOnDemand(cloud.DefaultCatalog(), p, fast.T, 0.2); err == nil {
		t.Fatal("20% slack at the fastest time should be infeasible")
	}
}

func TestSelectOnDemandInfeasible(t *testing.T) {
	if _, err := SelectOnDemand(cloud.DefaultCatalog(), app.BT(), 0.5, 0.2); err == nil {
		t.Fatal("absurd deadline should be infeasible")
	}
}

func TestFastestOnDemandBT(t *testing.T) {
	od := FastestOnDemand(cloud.DefaultCatalog(), app.BT())
	if od.Instance.Name != cloud.CC28XLarge.Name {
		t.Errorf("fastest BT fleet is %s, want cc2.8xlarge", od.Instance.Name)
	}
}

func TestPhiProperties(t *testing.T) {
	m := testMarket(1)
	g := model.NewGroup(app.BT(), cloud.M1Medium, cloud.ZoneA,
		m.Trace(cloud.M1Medium.Name, cloud.ZoneA))

	// Bid above the historical max never fails: checkpointing disabled.
	if f := Phi(g, g.MaxBid()+1); f != float64(g.T) {
		t.Errorf("Phi above max bid = %v, want T=%d", f, g.T)
	}
	// Any real bid yields an interval in (0, T].
	for _, bid := range BidGrid(g, 6) {
		f := Phi(g, bid)
		if f <= 0 || f > float64(g.T) {
			t.Errorf("Phi(%v) = %v outside (0, %d]", bid, f, g.T)
		}
	}
	// Young/Daly: a riskier (lower) bid must not lengthen the interval.
	grid := BidGrid(g, 6)
	for i := 1; i < len(grid); i++ {
		if Phi(g, grid[i]) > Phi(g, grid[i-1])+1e-9 {
			t.Errorf("Phi not monotone: Phi(%v)=%v > Phi(%v)=%v",
				grid[i], Phi(g, grid[i]), grid[i-1], Phi(g, grid[i-1]))
		}
	}
}

func TestBidGridShape(t *testing.T) {
	m := testMarket(2)
	g := model.NewGroup(app.BT(), cloud.M1Small, cloud.ZoneA,
		m.Trace(cloud.M1Small.Name, cloud.ZoneA))
	grid := BidGrid(g, 5)
	if len(grid) != 5 {
		t.Fatalf("grid size %d, want 5", len(grid))
	}
	if grid[0] != g.MaxBid() {
		t.Errorf("grid[0] = %v, want H = %v", grid[0], g.MaxBid())
	}
	for i := 1; i < len(grid); i++ {
		if math.Abs(grid[i]-grid[i-1]/2) > 1e-12 {
			t.Errorf("grid[%d] = %v, want half of %v", i, grid[i], grid[i-1])
		}
	}
}

func TestOptimizeProducesFeasiblePlan(t *testing.T) {
	m := testMarket(3)
	p := app.BT()
	baseline := FastestOnDemand(cloud.DefaultCatalog(), p)
	deadline := baseline.T * 1.5
	res, err := OptimizeContext(context.Background(), smallConfig(m, p, deadline))
	if err != nil {
		t.Fatal(err)
	}
	if res.Est.Time > deadline {
		t.Errorf("expected time %v exceeds deadline %v", res.Est.Time, deadline)
	}
	if len(res.Plan.Groups) == 0 {
		t.Error("optimizer found no spot plan under a loose deadline")
	}
	if res.Evals <= 0 {
		t.Error("no evaluations recorded")
	}
}

func TestOptimizeBeatsPureOnDemand(t *testing.T) {
	m := testMarket(4)
	p := app.BT()
	deadline := FastestOnDemand(cloud.DefaultCatalog(), p).T * 1.5
	res, err := OptimizeContext(context.Background(), smallConfig(m, p, deadline))
	if err != nil {
		t.Fatal(err)
	}
	od, err := SelectOnDemand(cloud.DefaultCatalog(), p, deadline, DefaultSlack)
	if err != nil {
		t.Fatal(err)
	}
	if res.Est.Cost >= od.FullCost() {
		t.Errorf("SOMPI expected cost $%.0f not below on-demand $%.0f",
			res.Est.Cost, od.FullCost())
	}
}

func TestOptimizeRespectsKappa(t *testing.T) {
	m := testMarket(5)
	p := app.BT()
	deadline := FastestOnDemand(cloud.DefaultCatalog(), p).T * 1.5
	cfg := smallConfig(m, p, deadline)
	cfg.Kappa = 1
	res, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Groups) > 1 {
		t.Errorf("kappa=1 produced %d groups", len(res.Plan.Groups))
	}
}

func TestOptimizeMoreKappaNeverWorse(t *testing.T) {
	m := testMarket(6)
	p := app.BT()
	deadline := FastestOnDemand(cloud.DefaultCatalog(), p).T * 1.5
	cfg1 := smallConfig(m, p, deadline)
	cfg1.Kappa = 1
	cfg2 := smallConfig(m, p, deadline)
	cfg2.Kappa = 2
	r1, err := OptimizeContext(context.Background(), cfg1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := OptimizeContext(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Est.Cost > r1.Est.Cost+1e-9 {
		t.Errorf("kappa=2 cost $%.2f worse than kappa=1 $%.2f", r2.Est.Cost, r1.Est.Cost)
	}
	// A larger κ enumerates a strictly larger space; how much of it the
	// search visits depends on how early the incumbent tightens.
	if r2.Evals+r2.Pruned <= r1.Evals+r1.Pruned {
		t.Errorf("kappa=2 space %d+%d not above kappa=1 %d+%d", r2.Evals, r2.Pruned, r1.Evals, r1.Pruned)
	}
}

func TestOptimizeInfeasibleDeadlineFallsBack(t *testing.T) {
	m := testMarket(7)
	p := app.BT()
	res, err := OptimizeContext(context.Background(), smallConfig(m, p, 1)) // 1 hour: impossible
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("err = %v, want ErrDeadlineInfeasible", err)
	}
	if len(res.Plan.Groups) != 0 {
		t.Error("fallback plan should be pure on-demand")
	}
	if res.Plan.Recovery.Instance.Name != cloud.CC28XLarge.Name {
		t.Errorf("fallback fleet %s, want the fastest type", res.Plan.Recovery.Instance.Name)
	}
}

func TestOptimizeErrorsOnBadConfig(t *testing.T) {
	if _, err := OptimizeContext(context.Background(), Config{Profile: app.BT(), Deadline: 10}); err == nil {
		t.Error("nil market accepted")
	}
	if _, err := OptimizeContext(context.Background(), Config{Profile: app.BT(), Market: testMarket(8)}); err == nil {
		t.Error("zero deadline accepted")
	}
}

func TestOptimizeTightDeadlineUsesFastRecovery(t *testing.T) {
	m := testMarket(9)
	p := app.FT()
	fast := FastestOnDemand(cloud.DefaultCatalog(), p)
	deadline := fast.T * 1.3
	res, err := OptimizeContext(context.Background(), smallConfig(m, p, deadline))
	if err != nil {
		t.Fatal(err)
	}
	// With only 30% headroom and 20% slack, only cc2.8xlarge can recover
	// a communication-intensive app in time.
	if res.Plan.Recovery.Instance.Name != cloud.CC28XLarge.Name {
		t.Errorf("recovery type %s, want cc2.8xlarge", res.Plan.Recovery.Instance.Name)
	}
}
