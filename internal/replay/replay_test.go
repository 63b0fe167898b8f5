package replay

import (
	"math"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/model"
	"sompi/internal/trace"
)

// flatTraces builds a trace per (type, zone) where every sample holds a
// constant price, making replay outcomes exactly predictable.
func flatTraces(price float64, hours int) map[cloud.MarketKey]*trace.Trace {
	traces := map[cloud.MarketKey]*trace.Trace{}
	n := hours * 12
	for _, it := range cloud.DefaultCatalog() {
		for _, z := range cloud.DefaultZones() {
			p := make([]float64, n)
			for i := range p {
				p[i] = price
			}
			traces[cloud.MarketKey{Type: it.Name, Zone: z}] = trace.New(trace.DefaultStep, p)
		}
	}
	return traces
}

// flatMarket wraps flatTraces in a market.
func flatMarket(price float64, hours int) *cloud.Market {
	return cloud.NewMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), flatTraces(price, hours))
}

// spikeMarket is flat at low except for a high plateau in [spikeAt,
// spikeAt+spikeDur) on every trace.
func spikeMarket(low, high, spikeAt, spikeDur float64, hours int) *cloud.Market {
	traces := flatTraces(low, hours)
	for _, tr := range traces {
		for i := range tr.Prices {
			h := float64(i) * tr.Step
			if h >= spikeAt && h < spikeAt+spikeDur {
				tr.Prices[i] = high
			}
		}
	}
	return cloud.NewMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), traces)
}

func runner(m *cloud.Market) *Runner {
	return &Runner{Market: m, Profile: app.BT()}
}

func groupFor(r *Runner, it cloud.InstanceType, zone string) *model.Group {
	return model.NewGroup(r.Profile, it, zone, r.Market.Trace(it.Name, zone))
}

func TestCompletesOnQuietMarket(t *testing.T) {
	r := runner(flatMarket(0.02, 400))
	g := groupFor(r, cloud.M1Medium, cloud.ZoneA)
	plan := model.Plan{
		Groups:   []model.GroupPlan{{Group: g, Bid: 0.05, Interval: float64(g.T)}},
		Recovery: model.NewOnDemand(r.Profile, cloud.CC28XLarge),
	}
	o := r.RunToCompletion(plan, 0)
	if !o.Completed {
		t.Fatal("run did not complete on a quiet market")
	}
	if math.Abs(o.Hours-float64(g.T)) > 0.2 {
		t.Errorf("Hours = %v, want ~%d", o.Hours, g.T)
	}
	wantCost := 0.02 * float64(g.M) * o.Hours
	if math.Abs(o.Cost-wantCost) > wantCost*0.01 {
		t.Errorf("Cost = %v, want ~%v", o.Cost, wantCost)
	}
}

func TestCheckpointOverheadExtendsWallClock(t *testing.T) {
	r := runner(flatMarket(0.02, 500))
	g := groupFor(r, cloud.M1Medium, cloud.ZoneA)
	with := model.Plan{
		Groups:   []model.GroupPlan{{Group: g, Bid: 0.05, Interval: 2}},
		Recovery: model.NewOnDemand(r.Profile, cloud.CC28XLarge),
	}
	without := model.Plan{
		Groups:   []model.GroupPlan{{Group: g, Bid: 0.05, Interval: float64(g.T)}},
		Recovery: model.NewOnDemand(r.Profile, cloud.CC28XLarge),
	}
	ow := r.RunToCompletion(with, 0)
	oo := r.RunToCompletion(without, 0)
	if !ow.Completed || !oo.Completed {
		t.Fatal("runs did not complete")
	}
	if ow.Hours <= oo.Hours {
		t.Errorf("checkpointing run (%vh) not longer than bare run (%vh)", ow.Hours, oo.Hours)
	}
}

func TestOutOfBidKillsGroupAndRecoversOnDemand(t *testing.T) {
	// Price spikes above the bid at hour 5 and stays up long enough to
	// kill the single group; recovery must finish the app on-demand.
	r := runner(spikeMarket(0.02, 1.0, 5, 4, 400))
	g := groupFor(r, cloud.M1Medium, cloud.ZoneA)
	plan := model.Plan{
		Groups:   []model.GroupPlan{{Group: g, Bid: 0.05, Interval: 2}},
		Recovery: model.NewOnDemand(r.Profile, cloud.CC28XLarge),
	}
	o := r.RunToCompletion(plan, 0)
	if !o.Completed {
		t.Fatal("run did not complete")
	}
	// Two checkpoints by hour 5 (at ~2 and ~4): saved 4 of T hours; the
	// recovery fleet runs (1 - 4/T) of its own time plus overhead.
	frac := 1 - 4/float64(g.T)
	wantRecovery := frac*plan.Recovery.T + app.RecoveryHours(r.Profile, cloud.CC28XLarge)
	wantHours := 5.0 + wantRecovery
	if math.Abs(o.Hours-wantHours) > 1.0 {
		t.Errorf("Hours = %v, want ~%v", o.Hours, wantHours)
	}
	wantODCost := plan.Recovery.Rate() * wantRecovery
	if o.Cost < wantODCost {
		t.Errorf("Cost = %v below the on-demand recovery cost %v", o.Cost, wantODCost)
	}
}

func TestNoCheckpointMeansFullRestart(t *testing.T) {
	r := runner(spikeMarket(0.02, 1.0, 5, 4, 400))
	g := groupFor(r, cloud.M1Medium, cloud.ZoneA)
	plan := model.Plan{
		Groups:   []model.GroupPlan{{Group: g, Bid: 0.05, Interval: float64(g.T)}},
		Recovery: model.NewOnDemand(r.Profile, cloud.CC28XLarge),
	}
	o := r.RunToCompletion(plan, 0)
	if !o.Completed {
		t.Fatal("run did not complete")
	}
	// All progress lost: on-demand runs its full time from scratch.
	wantHours := 5 + plan.Recovery.T
	if math.Abs(o.Hours-wantHours) > 0.5 {
		t.Errorf("Hours = %v, want ~%v (full restart)", o.Hours, wantHours)
	}
}

func TestReplicaSurvivesWhereSingleDies(t *testing.T) {
	// Zone A spikes at hour 5; zone B never does. A two-group plan must
	// complete on spot without on-demand recovery.
	m := flatMarket(0.02, 500)
	trA := m.Trace(cloud.M1Medium.Name, cloud.ZoneA)
	for i := range trA.Prices {
		if h := float64(i) * trA.Step; h >= 5 && h < 9 {
			trA.Prices[i] = 1.0
		}
	}
	r := runner(m)
	gA := groupFor(r, cloud.M1Medium, cloud.ZoneA)
	gB := groupFor(r, cloud.M1Medium, cloud.ZoneB)
	plan := model.Plan{
		Groups: []model.GroupPlan{
			{Group: gA, Bid: 0.05, Interval: 2},
			{Group: gB, Bid: 0.05, Interval: 2},
		},
		Recovery: model.NewOnDemand(r.Profile, cloud.CC28XLarge),
	}
	o := r.RunToCompletion(plan, 0)
	if !o.Completed {
		t.Fatal("run did not complete")
	}
	if o.AllGroupsDead {
		t.Error("zone B group should have survived")
	}
	// Wall clock tracks the surviving group, not an on-demand recovery.
	if o.Hours > float64(gB.T)+3 {
		t.Errorf("Hours = %v, want about the surviving group's %d", o.Hours, gB.T)
	}
}

func TestLosersBilledOnlyUntilWinnerFinishes(t *testing.T) {
	// Two identical groups: total cost should be ~2x a single group's,
	// both terminated at the winner's completion.
	r := runner(flatMarket(0.02, 500))
	gA := groupFor(r, cloud.M1Medium, cloud.ZoneA)
	gB := groupFor(r, cloud.M1Medium, cloud.ZoneB)
	mk := func(groups ...model.GroupPlan) model.Plan {
		return model.Plan{Groups: groups, Recovery: model.NewOnDemand(r.Profile, cloud.CC28XLarge)}
	}
	single := r.RunToCompletion(mk(model.GroupPlan{Group: gA, Bid: 0.05, Interval: float64(gA.T)}), 0)
	double := r.RunToCompletion(mk(
		model.GroupPlan{Group: gA, Bid: 0.05, Interval: float64(gA.T)},
		model.GroupPlan{Group: gB, Bid: 0.05, Interval: float64(gB.T)},
	), 0)
	if math.Abs(double.Cost-2*single.Cost) > single.Cost*0.05 {
		t.Errorf("double cost %v, want ~2x single %v", double.Cost, single.Cost)
	}
}

func TestExecuteWindowBoundaryCheckpoints(t *testing.T) {
	r := runner(flatMarket(0.02, 500))
	g := groupFor(r, cloud.M1Medium, cloud.ZoneA)
	plan := model.Plan{
		Groups:   []model.GroupPlan{{Group: g, Bid: 0.05, Interval: 4}},
		Recovery: model.NewOnDemand(r.Profile, cloud.CC28XLarge),
	}
	o := r.ExecuteWindow(plan, 0, 10, 0)
	if o.Completed {
		t.Fatal("10h window should not complete a ~29h run")
	}
	if o.Hours != 10 {
		t.Errorf("Hours = %v, want 10", o.Hours)
	}
	want := 10.0 / float64(g.T)
	if math.Abs(o.Progress-want) > 0.05 {
		t.Errorf("Progress = %v, want ~%v", o.Progress, want)
	}
}

func TestExecuteWindowResumesFromProgress(t *testing.T) {
	r := runner(flatMarket(0.02, 500))
	g := groupFor(r, cloud.M1Medium, cloud.ZoneA)
	plan := model.Plan{
		Groups:   []model.GroupPlan{{Group: g, Bid: 0.05, Interval: float64(g.T)}},
		Recovery: model.NewOnDemand(r.Profile, cloud.CC28XLarge),
	}
	// 60% done: the rest takes ~0.4*T hours.
	o := r.ExecuteWindow(plan, 0, 1000, 0.6)
	if !o.Completed {
		t.Fatal("did not complete")
	}
	want := 0.4 * float64(g.T)
	if math.Abs(o.Hours-want) > 0.5 {
		t.Errorf("Hours = %v, want ~%v", o.Hours, want)
	}
}

func TestPureOnDemandWindow(t *testing.T) {
	r := runner(flatMarket(0.02, 500))
	od := model.NewOnDemand(r.Profile, cloud.C3XLarge)
	plan := model.Plan{Recovery: od}
	o := r.ExecuteWindow(plan, 0, math.Inf(1), 0)
	if !o.Completed {
		t.Fatal("on-demand run did not complete")
	}
	if math.Abs(o.Hours-od.T) > 1e-9 {
		t.Errorf("Hours = %v, want %v", o.Hours, od.T)
	}
	if math.Abs(o.Cost-od.FullCost()) > 1e-6 {
		t.Errorf("Cost = %v, want %v", o.Cost, od.FullCost())
	}
}

func TestExecuteWindowPanicsOnBadProgress(t *testing.T) {
	r := runner(flatMarket(0.02, 10))
	defer func() {
		if recover() == nil {
			t.Fatal("bad progress did not panic")
		}
	}()
	r.ExecuteWindow(model.Plan{Recovery: model.NewOnDemand(r.Profile, cloud.C3XLarge)}, 0, 1, 1.5)
}

func TestMonteCarloAggregates(t *testing.T) {
	r := runner(flatMarket(0.02, 2000))
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
	st := monteCarlo(t, strat, r, MCConfig{Deadline: 50, Runs: 20, Seed: 1})
	if st.Runs != 20 || st.Failures != 0 {
		t.Fatalf("Runs=%d Failures=%d", st.Runs, st.Failures)
	}
	if st.Cost.Std() > st.Cost.Mean()*0.01 {
		t.Errorf("flat market should give near-constant cost, got std %v", st.Cost.Std())
	}
	if st.MissRate() != 0 {
		t.Errorf("deadline 50h missed on a flat market: %v", st.MissRate())
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	r := runner(flatMarket(0.02, 2000))
	strat := FixedPlan{
		Label: "od",
		Provider: func(r *Runner, deadline, start float64) (model.Plan, error) {
			return model.Plan{Recovery: model.NewOnDemand(r.Profile, cloud.C3XLarge)}, nil
		},
	}
	a := monteCarlo(t, strat, r, MCConfig{Deadline: 40, Runs: 10, Seed: 7})
	b := monteCarlo(t, strat, r, MCConfig{Deadline: 40, Runs: 10, Seed: 7})
	if a.Cost.Mean() != b.Cost.Mean() {
		t.Error("MonteCarlo is not deterministic for a fixed seed")
	}
}

func TestHourlyBillingQuietMarket(t *testing.T) {
	// On a flat market a completing group pays for each started hour at
	// the flat price; the wall clock is ~T hours, so the hourly total is
	// ceil(T) hours' worth.
	m := flatMarket(0.02, 500)
	r := &Runner{Market: m, Profile: app.BT(), Billing: BillingHourly}
	g := groupFor(r, cloud.M1Medium, cloud.ZoneA)
	plan := model.Plan{
		Groups:   []model.GroupPlan{{Group: g, Bid: 0.05, Interval: float64(g.T)}},
		Recovery: model.NewOnDemand(r.Profile, cloud.CC28XLarge),
	}
	o := r.RunToCompletion(plan, 0)
	if !o.Completed {
		t.Fatal("did not complete")
	}
	hours := math.Ceil(o.Hours - 1e-9)
	want := 0.02 * float64(g.M) * hours
	if math.Abs(o.Cost-want) > 1e-6 {
		t.Fatalf("hourly cost %v, want %v (%v started hours)", o.Cost, want, hours)
	}
}

func TestHourlyBillingRefundsInterruptedHour(t *testing.T) {
	// The group dies mid-hour at the spike: under hourly billing the
	// interrupted partial hour is free, so the spot spend equals the
	// whole hours completed before the spike.
	m := spikeMarket(0.02, 1.0, 5.5, 4, 400)
	cont := &Runner{Market: m, Profile: app.BT(), Billing: BillingContinuous}
	hourly := &Runner{Market: m, Profile: app.BT(), Billing: BillingHourly}
	mkPlan := func(r *Runner) model.Plan {
		g := groupFor(r, cloud.M1Medium, cloud.ZoneA)
		return model.Plan{
			Groups:   []model.GroupPlan{{Group: g, Bid: 0.05, Interval: float64(g.T)}},
			Recovery: model.NewOnDemand(r.Profile, cloud.CC28XLarge),
		}
	}
	// Run only the spot window so on-demand recovery does not mix in.
	oc := cont.ExecuteWindow(mkPlan(cont), 0, 20, 0)
	oh := hourly.ExecuteWindow(mkPlan(hourly), 0, 20, 0)
	if !oc.AllGroupsDead || !oh.AllGroupsDead {
		t.Fatal("groups should die at the spike")
	}
	gm := float64(groupFor(cont, cloud.M1Medium, cloud.ZoneA).M)
	// Continuous: ~5.5 hours at $0.02 (one replay step of slack);
	// hourly: exactly 5 whole hours — the 6th, started at 5.0, is
	// refunded on interruption.
	if math.Abs(oc.Cost-0.02*gm*5.5) > 0.02*gm*0.1 {
		t.Fatalf("continuous cost %v, want ~%v", oc.Cost, 0.02*gm*5.5)
	}
	if math.Abs(oh.Cost-0.02*gm*5) > 1e-6 {
		t.Fatalf("hourly cost %v, want %v", oh.Cost, 0.02*gm*5)
	}
}

func TestHourlyBillingSoftensSpikesForHighBids(t *testing.T) {
	// A high-bid group rides through a 30-minute spike: continuous
	// billing pays the spike price for the half hour; hourly billing
	// paid the hour upfront at the calm price and charges nothing extra.
	m := spikeMarket(0.02, 0.5, 5.25, 0.5, 400)
	cont := &Runner{Market: m, Profile: app.BT(), Billing: BillingContinuous}
	hourly := &Runner{Market: m, Profile: app.BT(), Billing: BillingHourly}
	mkPlan := func(r *Runner) model.Plan {
		g := groupFor(r, cloud.M1Medium, cloud.ZoneA)
		return model.Plan{
			Groups:   []model.GroupPlan{{Group: g, Bid: 2.0, Interval: float64(g.T)}},
			Recovery: model.NewOnDemand(r.Profile, cloud.CC28XLarge),
		}
	}
	oc := cont.ExecuteWindow(mkPlan(cont), 0, 10, 0)
	oh := hourly.ExecuteWindow(mkPlan(hourly), 0, 10, 0)
	if oh.Cost >= oc.Cost {
		t.Fatalf("hourly %v should undercut continuous %v through a brief spike",
			oh.Cost, oc.Cost)
	}
}
