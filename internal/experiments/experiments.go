// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) against the simulated substrate. Each constructor
// returns a report.Table whose rows mirror what the paper plots; the
// EXPERIMENTS.md file in the repository root records measured-vs-paper
// shapes for each one.
package experiments

import (
	"context"
	"fmt"
	"time"

	"sompi/internal/app"
	"sompi/internal/baselines"
	"sompi/internal/cloud"
	"sompi/internal/opt"
	"sompi/internal/replay"
	"sompi/internal/report"
)

// Deadline multipliers relative to Baseline Time (Section 5.1).
const (
	LooseFactor = 1.5
	TightFactor = 1.05
)

// Params sizes an experiment run. The zero value gives a configuration
// that regenerates recognizable shapes in minutes; cmd/experiments -full
// raises the replication counts toward the paper's.
type Params struct {
	// Seed drives market synthesis and Monte Carlo sampling.
	Seed uint64
	// MarketHours is the length of the synthesized price history.
	MarketHours float64
	// Runs is the Monte Carlo replication count per configuration.
	Runs int
	// Apps restricts the workloads (nil = the paper's full set).
	Apps []app.Profile
	// Workers sizes the Monte Carlo replay and tournament cell pools
	// (0 = GOMAXPROCS, 1 = serial); the optimizer always searches on one
	// worker. Every experiment's numbers are identical at any worker
	// count; only wall-clock changes.
	Workers int
}

func (p Params) withDefaults() Params {
	if p.Seed == 0 {
		p.Seed = 42
	}
	if p.MarketHours == 0 {
		p.MarketHours = 24 * 30
	}
	if p.Runs == 0 {
		p.Runs = 12
	}
	if p.Apps == nil {
		p.Apps = append(app.NPB(), app.LAMMPS(32), app.LAMMPS(128))
	}
	return p
}

func (p Params) market() *cloud.Market {
	return cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), p.MarketHours, p.Seed)
}

// baselineOf reports the paper's normalization quantities: the cost and
// time of the best-performance on-demand fleet.
func baselineOf(pr app.Profile) (cost, hours float64) {
	od := opt.FastestOnDemand(nil, pr)
	return od.FullCost(), od.T
}

// mc runs one strategy through the Monte Carlo harness. Params are
// defaulted and the markets generated here, so a rejected config is a
// bug in the experiment's definition, not an input error.
func mc(s replay.Strategy, m cloud.MarketView, pr app.Profile, deadline float64, p Params) replay.MCStats {
	r := &replay.Runner{Market: m, Profile: pr}
	st, err := replay.MonteCarloContext(context.Background(), s, r, replay.MCConfig{
		Deadline: deadline,
		Runs:     p.Runs,
		History:  baselines.History,
		Seed:     p.Seed + 1,
		Workers:  p.Workers,
	})
	if err != nil {
		panic(err)
	}
	return st
}

// Fig5 regenerates Figure 5: normalized monetary cost of On-demand,
// Marathe, Marathe-Opt and SOMPI under loose and tight deadlines for
// every workload, normalized to Baseline Cost.
func Fig5(p Params) *report.Table {
	p = p.withDefaults()
	m := p.market()
	t := &report.Table{
		Title:  "Figure 5: normalized monetary cost vs state of the art",
		Header: []string{"app", "class", "deadline", "On-demand", "Marathe", "Marathe-Opt", "SOMPI"},
	}
	for _, pr := range p.Apps {
		baseCost, baseTime := baselineOf(pr)
		for _, d := range []struct {
			label string
			mult  float64
		}{{"loose", LooseFactor}, {"tight", TightFactor}} {
			deadline := baseTime * d.mult
			row := []interface{}{pr.Name, string(pr.Class), d.label}
			for _, s := range []replay.Strategy{
				baselines.OnDemandOnly(),
				baselines.Marathe(m),
				baselines.MaratheOpt(m),
				baselines.SOMPI(m),
			} {
				st := mc(s, m, pr, deadline, p)
				row = append(row, st.Cost.Mean()/baseCost)
			}
			t.Add(row...)
		}
	}
	t.AddNote("paper shape: SOMPI < Marathe-Opt <= Marathe; SOMPI ~30%% of Baseline on average")
	return t
}

// Table2 regenerates Table 2: execution time of Marathe-Opt and SOMPI
// normalized to Baseline Time.
func Table2(p Params) *report.Table {
	p = p.withDefaults()
	m := p.market()
	t := &report.Table{
		Title:  "Table 2: normalized execution time",
		Header: []string{"app", "deadline", "Marathe-Opt", "SOMPI", "deadline/baseline"},
	}
	for _, pr := range p.Apps {
		_, baseTime := baselineOf(pr)
		for _, d := range []struct {
			label string
			mult  float64
		}{{"loose", LooseFactor}, {"tight", TightFactor}} {
			deadline := baseTime * d.mult
			mo := mc(baselines.MaratheOpt(m), m, pr, deadline, p)
			so := mc(baselines.SOMPI(m), m, pr, deadline, p)
			t.Add(pr.Name, d.label,
				mo.Hours.Mean()/baseTime, so.Hours.Mean()/baseTime, d.mult)
		}
	}
	t.AddNote("paper shape: both near the deadline under tight, well under it when loose")
	return t
}

// Fig6 regenerates Figure 6: normalized cost of the simple spot heuristics
// against SOMPI, averaged per workload class.
func Fig6(p Params) *report.Table {
	p = p.withDefaults()
	m := p.market()
	t := &report.Table{
		Title:  "Figure 6: comparison with heuristic spot usage",
		Header: []string{"class", "deadline", "On-demand", "Spot-Inf", "Spot-Avg", "SOMPI", "Spot-Inf std"},
	}
	classes := map[app.Class][]app.Profile{}
	for _, pr := range p.Apps {
		classes[pr.Class] = append(classes[pr.Class], pr)
	}
	for _, class := range []app.Class{app.Computation, app.Communication, app.IO} {
		apps := classes[class]
		if len(apps) == 0 {
			continue
		}
		for _, d := range []struct {
			label string
			mult  float64
		}{{"loose", LooseFactor}, {"tight", TightFactor}} {
			sums := make([]float64, 4)
			infStd := 0.0
			for _, pr := range apps {
				baseCost, baseTime := baselineOf(pr)
				deadline := baseTime * d.mult
				for i, s := range []replay.Strategy{
					baselines.OnDemandOnly(),
					baselines.SpotInf(m),
					baselines.SpotAvg(m),
					baselines.SOMPI(m),
				} {
					st := mc(s, m, pr, deadline, p)
					sums[i] += st.Cost.Mean() / baseCost / float64(len(apps))
					if i == 1 {
						infStd += st.Cost.Std() / baseCost / float64(len(apps))
					}
				}
			}
			t.Add(string(class), d.label, sums[0], sums[1], sums[2], sums[3], infStd)
		}
	}
	t.AddNote("paper shape: heuristics beat On-demand but lose to SOMPI; Spot-Inf variance large")
	return t
}

// Fig7 regenerates Figure 7: SOMPI's cost as the deadline stretches from
// Baseline Time to 2x, for one app per class, with the on-demand recovery
// type the optimizer selects at each point.
func Fig7(p Params) *report.Table {
	p = p.withDefaults()
	m := p.market()
	t := &report.Table{
		Title:  "Figure 7: monetary cost vs deadline (SOMPI)",
		Header: []string{"app", "deadline-extra", "normalized-cost", "recovery-type"},
	}
	for _, pr := range []app.Profile{app.BT(), app.FT(), app.BTIO()} {
		baseCost, baseTime := baselineOf(pr)
		for _, extra := range []float64{0, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0} {
			deadline := baseTime * (1 + extra)
			st := mc(baselines.SOMPI(m), m, pr, deadline, p)
			// The recovery type the one-shot optimizer picks at this
			// deadline (the arrows in Figure 7).
			rec := "-"
			if od, err := opt.SelectOnDemand(nil, pr, deadline, opt.DefaultSlack); err == nil {
				rec = od.Instance.Name
			} else if od, err := opt.SelectOnDemand(nil, pr, deadline, 0); err == nil {
				rec = od.Instance.Name
			}
			t.Add(pr.Name, fmt.Sprintf("%.2f", extra), st.Cost.Mean()/baseCost, rec)
		}
	}
	t.AddNote("paper shape: cost falls as the deadline loosens; recovery type steps down the catalog")
	return t
}

// Fig8 regenerates Figure 8: the fault-tolerance ablation (All-Unable,
// w/o-RP, w/o-CK, w/o-MT vs SOMPI), normalized to Baseline Cost and
// averaged over one app per class.
func Fig8(p Params) *report.Table {
	p = p.withDefaults()
	m := p.market()
	t := &report.Table{
		Title:  "Figure 8: individual fault-tolerance mechanisms",
		Header: []string{"app", "deadline", "All-Unable", "w/o-RP", "w/o-CK", "w/o-MT", "SOMPI"},
	}
	for _, pr := range []app.Profile{app.BT(), app.FT(), app.BTIO()} {
		baseCost, baseTime := baselineOf(pr)
		for _, d := range []struct {
			label string
			mult  float64
		}{{"loose", LooseFactor}, {"tight", TightFactor}} {
			deadline := baseTime * d.mult
			row := []interface{}{pr.Name, d.label}
			for _, s := range []replay.Strategy{
				baselines.AllUnable(m),
				baselines.WithoutRP(m),
				baselines.WithoutCK(m),
				baselines.WithoutMT(m),
				baselines.SOMPI(m),
			} {
				st := mc(s, m, pr, deadline, p)
				row = append(row, st.Cost.Mean()/baseCost)
			}
			t.Add(row...)
		}
	}
	t.AddNote("paper shape: single mechanisms barely beat All-Unable; SOMPI clearly below all")
	return t
}

// Timing wraps an experiment constructor and reports its wall time, for
// the optimization-overhead accounting the paper carries through all
// results.
func Timing(name string, f func(Params) *report.Table, p Params) (*report.Table, time.Duration) {
	startT := time.Now()
	t := f(p)
	return t, time.Since(startT)
}
