package opt

import (
	"context"
	"math"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/replay"
	"sompi/internal/trace"
)

// quietTraces builds per-market traces whose prices never exceed a
// fraction of on-demand, so spot plans always survive.
func quietTraces(hours int) map[cloud.MarketKey]*trace.Trace {
	traces := map[cloud.MarketKey]*trace.Trace{}
	for _, it := range cloud.DefaultCatalog() {
		for _, z := range cloud.DefaultZones() {
			p := make([]float64, hours*12)
			for i := range p {
				p[i] = it.OnDemand * 0.3
			}
			traces[cloud.MarketKey{Type: it.Name, Zone: z}] = trace.New(trace.DefaultStep, p)
		}
	}
	return traces
}

// quietMarket wraps quietTraces in a market.
func quietMarket(hours int) *cloud.Market {
	return cloud.NewMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), quietTraces(hours))
}

// spikyMarket is quiet except every market spikes far above on-demand in
// [at, at+dur).
func spikyMarket(hours int, at, dur float64) *cloud.Market {
	traces := quietTraces(hours)
	for k, tr := range traces {
		it, _ := cloud.DefaultCatalog().ByName(k.Type)
		for i := range tr.Prices {
			if h := float64(i) * tr.Step; h >= at && h < at+dur {
				tr.Prices[i] = it.OnDemand * 50
			}
		}
	}
	return cloud.NewMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), traces)
}

func TestAdaptiveCompletesOnQuietMarket(t *testing.T) {
	m := quietMarket(600)
	p := app.BT()
	r := &replay.Runner{Market: m, Profile: p}
	dl := FastestOnDemand(nil, p).T * 1.5
	s := &Adaptive{Base: Config{Market: m, Kappa: 1, GridLevels: 3, MaxGroups: 3}}
	o, err := s.Run(r, dl, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Completed {
		t.Fatal("adaptive run did not complete")
	}
	if o.Hours > dl {
		t.Errorf("missed deadline: %v > %v", o.Hours, dl)
	}
	// On a quiet market the whole run stays on spot at ~0.3x on-demand.
	base := FastestOnDemand(nil, p).FullCost()
	if o.Cost >= base {
		t.Errorf("cost $%.0f not below baseline $%.0f on a quiet market", o.Cost, base)
	}
}

func TestAdaptiveSurvivesMidRunSpike(t *testing.T) {
	// A global spike 6 hours in kills any group; the adaptive loop must
	// still finish, recovering through checkpoints/on-demand.
	m := spikyMarket(600, 206, 3)
	p := app.BT()
	r := &replay.Runner{Market: m, Profile: p}
	dl := FastestOnDemand(nil, p).T * 1.6
	s := &Adaptive{Base: Config{Market: m, Kappa: 1, GridLevels: 3, MaxGroups: 3}}
	o, err := s.Run(r, dl, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Completed {
		t.Fatal("adaptive run did not complete after the spike")
	}
}

func TestAdaptiveImpossibleDeadlineBestEffort(t *testing.T) {
	m := quietMarket(400)
	p := app.BT()
	r := &replay.Runner{Market: m, Profile: p}
	s := &Adaptive{Base: Config{Market: m, Kappa: 1, GridLevels: 3, MaxGroups: 3}}
	// One hour deadline: impossible; the strategy must still finish the
	// application (best effort on the fastest fleet).
	o, err := s.Run(r, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Completed {
		t.Fatal("best-effort run did not complete")
	}
	fast := FastestOnDemand(nil, p)
	if o.Hours < fast.T*0.9 {
		t.Errorf("completed impossibly fast: %vh", o.Hours)
	}
}

func TestAdaptiveNameAndLabel(t *testing.T) {
	if (&Adaptive{}).Name() != "SOMPI" {
		t.Error("default name")
	}
	if (&Adaptive{Label: "X"}).Name() != "X" {
		t.Error("label override")
	}
	if (&OneShot{}).Name() != "w/o-MT" {
		t.Error("one-shot default name")
	}
}

func TestOneShotMatchesFixedReplay(t *testing.T) {
	// On a quiet market the one-shot plan completes on spot; its cost
	// must equal replaying the same plan directly.
	m := quietMarket(600)
	p := app.BT()
	r := &replay.Runner{Market: m, Profile: p}
	dl := FastestOnDemand(nil, p).T * 1.5
	s := &OneShot{Base: Config{Market: m, Kappa: 1, GridLevels: 3, MaxGroups: 3}}
	o, err := s.Run(r, dl, 200)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{Profile: p, Market: m.Window(200-96, 96), Deadline: dl,
		Kappa: 1, GridLevels: 3, MaxGroups: 3}
	res, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct := r.RunToCompletion(res.Plan, 200)
	if math.Abs(o.Cost-direct.Cost) > 1e-6 {
		t.Errorf("one-shot $%v vs direct replay $%v", o.Cost, direct.Cost)
	}
}

func TestAdaptiveCheaperOrEqualOneShotOnAverage(t *testing.T) {
	// Update maintenance should not hurt: across a few replays of the
	// synthetic market, adaptive SOMPI's mean cost is at or below the
	// one-shot's (the paper's w/o-MT comparison, ~15% gap).
	m := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), 24*20, 21)
	p := app.BT()
	r := &replay.Runner{Market: m, Profile: p}
	dl := FastestOnDemand(nil, p).T * 1.5
	cfgBase := Config{Market: m}
	mcCfg := replay.MCConfig{Deadline: dl, Runs: 6, Seed: 3}
	ad, err := replay.MonteCarloContext(context.Background(), &Adaptive{Base: cfgBase}, r, mcCfg)
	if err != nil {
		t.Fatal(err)
	}
	os, err := replay.MonteCarloContext(context.Background(), &OneShot{Base: cfgBase}, r, mcCfg)
	if err != nil {
		t.Fatal(err)
	}
	if ad.Cost.Mean() > os.Cost.Mean()*1.1 {
		t.Errorf("adaptive $%.0f clearly worse than one-shot $%.0f",
			ad.Cost.Mean(), os.Cost.Mean())
	}
}
