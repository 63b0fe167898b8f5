package baselines

import (
	"context"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/opt"
	"sompi/internal/replay"
)

func testMarket(seed uint64) *cloud.Market {
	return cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), 24*14, seed)
}

func runnerFor(m *cloud.Market, p app.Profile) *replay.Runner {
	return &replay.Runner{Market: m, Profile: p}
}

func looseDeadline(p app.Profile) float64 {
	return opt.FastestOnDemand(nil, p).T * 1.5
}

func TestBaselineUsesFastestFleet(t *testing.T) {
	m := testMarket(1)
	r := runnerFor(m, app.BT())
	o, err := Baseline().Run(r, looseDeadline(app.BT()), 100)
	if err != nil {
		t.Fatal(err)
	}
	fast := opt.FastestOnDemand(nil, app.BT())
	if !o.Completed {
		t.Fatal("baseline did not complete")
	}
	if o.Cost != fast.FullCost() {
		t.Errorf("cost $%v, want the fastest fleet's $%v", o.Cost, fast.FullCost())
	}
}

func TestOnDemandOnlyCheaperThanBaselineWhenLoose(t *testing.T) {
	m := testMarket(2)
	p := app.BT()
	r := runnerFor(m, p)
	dl := looseDeadline(p)
	od, err := OnDemandOnly().Run(r, dl, 100)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := Baseline().Run(r, dl, 100)
	if od.Cost >= base.Cost {
		t.Errorf("On-demand $%v not below Baseline $%v under a loose deadline", od.Cost, base.Cost)
	}
	if od.Hours > dl {
		t.Errorf("On-demand missed its own deadline: %v > %v", od.Hours, dl)
	}
}

func TestMaratheUsesCC2EverywhereWithCheckpoints(t *testing.T) {
	m := testMarket(3)
	p := app.BT()
	r := runnerFor(m, p)
	plan, err := Marathe(m).(replay.FixedPlan).Provider(r, looseDeadline(p), 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != len(m.Zones()) {
		t.Fatalf("%d groups, want one per zone (%d)", len(plan.Groups), len(m.Zones()))
	}
	for _, gp := range plan.Groups {
		if gp.Group.Instance.Name != cloud.CC28XLarge.Name {
			t.Errorf("group on %s, Marathe only uses cc2.8xlarge", gp.Group.Instance.Name)
		}
		if gp.Bid != cloud.CC28XLarge.OnDemand {
			t.Errorf("bid %v, want the on-demand price", gp.Bid)
		}
		if gp.Interval <= 0 || gp.Interval > float64(gp.Group.T) {
			t.Errorf("interval %v outside (0, %d]", gp.Interval, gp.Group.T)
		}
	}
}

func TestMaratheOptPicksCheaperTypeForIOApp(t *testing.T) {
	// For the IO-intensive BTIO, cc2.8xlarge is disastrous; Marathe-Opt
	// must switch away from it under a loose deadline.
	m := testMarket(4)
	p := app.BTIO()
	r := runnerFor(m, p)
	plan, err := MaratheOpt(m).(replay.FixedPlan).Provider(r, looseDeadline(p)*2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) == 0 {
		t.Fatal("no groups")
	}
	if got := plan.Groups[0].Group.Instance.Name; got == cloud.CC28XLarge.Name {
		t.Error("Marathe-Opt kept cc2.8xlarge for an IO-intensive app")
	}
}

func TestSpotInfNeverDiesInReplay(t *testing.T) {
	m := testMarket(5)
	p := app.BT()
	r := runnerFor(m, p)
	o, err := SpotInf(m).Run(r, looseDeadline(p), 150)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Completed {
		t.Fatal("Spot-Inf did not complete")
	}
	if o.AllGroupsDead {
		t.Error("an infinite bid lost its group to an out-of-bid event")
	}
}

func TestSpotAvgBidsTheMean(t *testing.T) {
	m := testMarket(6)
	p := app.BT()
	r := runnerFor(m, p)
	plan, err := SpotAvg(m).(replay.FixedPlan).Provider(r, looseDeadline(p), 200)
	if err != nil {
		t.Fatal(err)
	}
	gp := plan.Groups[0]
	train := trainView(m, 200)
	mean := train.Trace(gp.Group.Key.Type, gp.Group.Key.Zone).Mean()
	if gp.Bid != mean {
		t.Errorf("bid %v, want the training-window mean %v", gp.Bid, mean)
	}
}

func TestAblationConfigurations(t *testing.T) {
	m := testMarket(7)
	cases := []struct {
		s          replay.Strategy
		name       string
		wantKappa  int
		wantNoCkpt bool
	}{
		{WithoutRP(m), "w/o-RP", 1, false},
		{WithoutCK(m), "w/o-CK", 0, true},
		{AllUnable(m), "All-Unable", 1, true},
		{WithoutMT(m), "w/o-MT", 0, false},
	}
	for _, c := range cases {
		os, ok := c.s.(*opt.OneShot)
		if !ok {
			t.Fatalf("%s is not a OneShot", c.name)
		}
		if os.Name() != c.name {
			t.Errorf("name %q, want %q", os.Name(), c.name)
		}
		if c.wantKappa > 0 && os.Base.Kappa != c.wantKappa {
			t.Errorf("%s kappa = %d, want %d", c.name, os.Base.Kappa, c.wantKappa)
		}
		if os.Base.DisableCheckpoints != c.wantNoCkpt {
			t.Errorf("%s DisableCheckpoints = %v", c.name, os.Base.DisableCheckpoints)
		}
	}
}

func TestAblationPlansHonorRestrictions(t *testing.T) {
	m := testMarket(8)
	p := app.BT()
	r := runnerFor(m, p)
	dl := looseDeadline(p)

	// w/o-RP: at most one circle group.
	o, err := WithoutRP(m).Run(r, dl, 150)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Completed {
		t.Error("w/o-RP did not complete")
	}

	// All-Unable and w/o-CK at least execute to completion via hybrid
	// recovery even with fault tolerance stripped.
	for _, s := range []replay.Strategy{AllUnable(m), WithoutCK(m)} {
		o, err := s.Run(r, dl, 150)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !o.Completed {
			t.Errorf("%s did not complete", s.Name())
		}
	}
}

func TestSOMPICompletesAndBeatsBaselineLoose(t *testing.T) {
	m := testMarket(9)
	p := app.BT()
	r := runnerFor(m, p)
	dl := looseDeadline(p)
	st, err := replay.MonteCarloContext(context.Background(), SOMPI(m), r, replay.MCConfig{Deadline: dl, Runs: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Failures > 0 {
		t.Fatalf("%d strategy failures", st.Failures)
	}
	base := opt.FastestOnDemand(nil, p).FullCost()
	if st.Cost.Mean() >= base {
		t.Errorf("SOMPI mean $%.0f not below Baseline $%.0f", st.Cost.Mean(), base)
	}
}

func TestSOMPIWindowLabel(t *testing.T) {
	m := testMarket(10)
	s := SOMPIWindow(m, 10)
	if s.Name() != "SOMPI-Tm10" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestTrainViewNeverPeeksForward(t *testing.T) {
	m := testMarket(11)
	train := trainView(m, 200)
	for _, k := range train.Keys() {
		if d := train.Trace(k.Type, k.Zone).Duration(); d > History+1 {
			t.Fatalf("training window %v spans %vh, max %v", k, d, History)
		}
	}
}
