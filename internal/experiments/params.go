package experiments

import (
	"context"
	"time"

	"sompi/internal/app"
	"sompi/internal/baselines"
	"sompi/internal/opt"
	"sompi/internal/replay"
	"sompi/internal/report"
)

// Slack regenerates the Section 5.2 slack study: monetary cost and
// execution time of SOMPI on BT as the on-demand slack reservation varies,
// at a fixed deadline.
func Slack(p Params) *report.Table {
	p = p.withDefaults()
	m := p.market()
	pr := app.BT()
	baseCost, baseTime := baselineOf(pr)
	deadline := baseTime * LooseFactor
	t := &report.Table{
		Title:  "Parameter study: slack (BT, deadline 1.5x baseline)",
		Header: []string{"slack", "normalized-cost", "normalized-time", "miss-rate"},
	}
	for _, slack := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
		s := &opt.Adaptive{
			Base:    opt.Config{Market: m, Slack: slack},
			History: baselines.History,
		}
		st := mc(s, m, pr, deadline, p)
		t.Add(slack, st.Cost.Mean()/baseCost, st.Hours.Mean()/baseTime, st.MissRate())
	}
	t.AddNote("paper shape: cost falls up to ~20%% slack, flat beyond; time bounded ~1.16x")
	return t
}

// Kappa regenerates the Section 5.2 κ study: expected cost and
// optimization overhead as the number of usable circle groups grows.
func Kappa(p Params) *report.Table {
	p = p.withDefaults()
	m := p.market()
	pr := app.BT()
	baseCost, baseTime := baselineOf(pr)
	deadline := baseTime * LooseFactor
	t := &report.Table{
		Title:  "Parameter study: kappa (BT, expected cost from the model)",
		Header: []string{"kappa", "normalized-expected-cost", "evaluations", "wall-ms"},
	}
	for kappa := 1; kappa <= 5; kappa++ {
		startT := time.Now()
		res, err := opt.OptimizeContext(context.Background(), opt.Config{
			Profile: pr, Market: m, Deadline: deadline, Kappa: kappa,
		})
		if err != nil {
			t.Add(kappa, "infeasible", 0, 0)
			continue
		}
		t.Add(kappa, res.Est.Cost/baseCost, res.Evals,
			time.Since(startT).Milliseconds())
	}
	t.AddNote("paper shape: cost improvement saturates around kappa=4 while overhead keeps growing")
	return t
}

// Tm regenerates the Section 5.2 optimization-window study: SOMPI's
// measured cost as the window T_m varies.
func Tm(p Params) *report.Table {
	p = p.withDefaults()
	m := p.market()
	pr := app.BT()
	baseCost, baseTime := baselineOf(pr)
	deadline := baseTime * LooseFactor
	t := &report.Table{
		Title:  "Parameter study: optimization window T_m (BT)",
		Header: []string{"Tm-hours", "normalized-cost", "miss-rate"},
	}
	for _, window := range []float64{5, 10, 15, 20, 30} {
		st := mc(baselines.SOMPIWindow(m, window), m, pr, deadline, p)
		t.Add(window, st.Cost.Mean()/baseCost, st.MissRate())
	}
	t.AddNote("paper shape: sweet spot near 15h; smaller windows churn, larger ones go stale")
	return t
}

var _ = replay.MCStats{} // keep replay imported for doc references
