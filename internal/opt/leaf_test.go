package opt

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/model"
	"sompi/internal/stats"
)

// planMissMarket is the training view a plan-miss request sees: sompid's
// -hours 336 -seed 2015 market, trailing 96 h.
func planMissMarket() cloud.MarketView { return planMissWindow(96) }

// planMissWindow is the same market's trailing window of hours.
func planMissWindow(hours float64) cloud.MarketView {
	snap := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), 336, 2015).Capture()
	frontier := snap.MinDuration()
	return snap.Window(frontier-hours, hours)
}

// planMissPresets are the app presets a plan-miss pass plans for.
var planMissPresets = []string{"BT", "SP", "LU", "FT", "IS", "BTIO", "LAMMPS-32", "LAMMPS-128"}

// planMissDeadlines draws one deadline from each of strata equal strata
// of U[40,120) h, the plan-miss pass's deadline mix.
func planMissDeadlines(r *stats.RNG, strata int) []float64 {
	out := make([]float64, strata)
	for s := range out {
		out[s] = 40 + (float64(s)+r.Float64())*80/float64(strata)
	}
	return out
}

// TestLeafCostNeverRejectsAnAcceptableLeaf runs the serial search with
// the reference evaluator beside every leaf. A leaf the prefix stack
// walked in full must cost Estimate.Cost to the bit, and one the
// cost-first test then turned away must be one the reference predicate
// (cost, deadline, MaxAllFail) would have turned away too. A leaf whose
// walk stopped at the incumbent must cost strictly more than the limit it
// was cut against, its partial cost at most that, and it must not be the
// plan the search returns.
func TestLeafCostNeverRejectsAnAcceptableLeaf(t *testing.T) {
	train := planMissMarket()
	leaves, passed, cut := 0, 0, 0
	var ev model.Evaluator
	var winner []model.GroupPlan
	leafAudit = func(s *searcher, last *model.PreparedGroup, cost, limit float64, within bool) {
		leaves++
		pgs := append(s.pgs, last)
		est := ev.EvaluatePrepared(pgs, s.od)
		if !within {
			cut++
			if !(est.Cost > limit && limit < cost && cost <= est.Cost) {
				t.Fatalf("subset %v: cut at partial cost %v against limit %v, reference %v", s.subset, cost, limit, est.Cost)
			}
			if samePlan(pgs, winner) {
				t.Fatalf("subset %v: the winning leaf was cut at %v against limit %v", s.subset, cost, limit)
			}
			return
		}
		if math.Float64bits(cost) != math.Float64bits(est.Cost) || cost > limit {
			t.Fatalf("subset %v: stack cost %v (%#x) within limit %v, reference %v (%#x)",
				s.subset, cost, math.Float64bits(cost), limit, est.Cost, math.Float64bits(est.Cost))
		}
		if cost < s.localBound() {
			passed++
			return
		}
		if est.Cost < s.localBound() && est.Time <= s.cfg.Deadline &&
			!(s.cfg.MaxAllFail > 0 && est.PAllFail > s.cfg.MaxAllFail) {
			t.Fatalf("subset %v: rejected at cost %v a leaf the reference accepts (%+v)", s.subset, cost, est)
		}
	}
	defer func() { leafAudit = nil }()

	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"defaults", func(*Config) {}},
		{"tight deadline", func(c *Config) { c.Deadline = 46.5 }},
		{"max-all-fail", func(c *Config) { c.MaxAllFail = 0.1 }},
		{"no checkpoints", func(c *Config) { c.DisableCheckpoints = true }},
		{"exhaustive", func(c *Config) { c.DisablePruning = true; c.Kappa = 3 }},
		{"all markets", func(c *Config) { c.MaxGroups = 12; c.Kappa = 3; c.GridLevels = 8 }},
	} {
		for _, p := range []app.Profile{app.BT(), app.IS(), app.LAMMPS(128)} {
			cfg := Config{Profile: p, Market: train, Deadline: 100, Workers: 1}
			tc.mutate(&cfg)
			// The serial search is a pure function of the Config, so a first
			// run names the leaf the audited run must never cut.
			audit := leafAudit
			leafAudit = nil
			want, err := OptimizeContext(context.Background(), cfg)
			leafAudit = audit
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, p.Name, err)
			}
			winner = want.Plan.Groups
			before, cutBefore := leaves, cut
			res, err := OptimizeContext(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, p.Name, err)
			}
			if fingerprint(res) != fingerprint(want) {
				t.Fatalf("%s %s: audited plan\n%sdiffers from\n%s", tc.name, p.Name, fingerprint(res), fingerprint(want))
			}
			if cfg.DisablePruning && cut != cutBefore {
				t.Errorf("%s %s: %d leaves cut with pruning off", tc.name, p.Name, cut-cutBefore)
			}
			// Evals = the baseline + the ranking evaluations + one per leaf,
			// cut or walked in full.
			if ranked := res.Evals - (leaves - before); ranked < 1 || ranked > 1+12*cfg.withDefaults().GridLevels {
				t.Errorf("%s %s: Evals %d does not count %d leaves once each", tc.name, p.Name, res.Evals, leaves-before)
			}
		}
	}
	t.Logf("%d leaves audited: %d stopped at the incumbent, %d passed the cost test and paid for a full estimate", leaves, cut, passed)
}

// samePlan reports whether pgs prices the same groups, bids and intervals,
// in order, as plan.
func samePlan(pgs []*model.PreparedGroup, plan []model.GroupPlan) bool {
	if len(pgs) != len(plan) {
		return false
	}
	for i, pg := range pgs {
		if pg.GP.Group.Key != plan[i].Group.Key || pg.GP.Bid != plan[i].Bid || pg.GP.Interval != plan[i].Interval {
			return false
		}
	}
	return true
}

// TestPlanMissPinnedAtParent pins three plan-miss configurations to the
// literals the per-leaf k-way evaluator produced at the commit before the
// prefix stack replaced it: the counters are a pure function of the
// Config at Workers: 1 (B5), so any drift in what a leaf costs, or in
// which leaves the incumbent lets through, moves them.
func TestPlanMissPinnedAtParent(t *testing.T) {
	train := planMissMarket()
	for _, pin := range []struct {
		profile       app.Profile
		deadline      float64
		evals, pruned int
		cost, time    uint64
		groups        int
	}{
		{app.BT(), 100, 33847, 70098, 0x40635804a614906a, 0x403d000000000000, 1},
		{app.IS(), 46.5, 24578, 79367, 0x40526eb3b172ed60, 0x401fe365a8b31bd9, 1},
		{app.LAMMPS(128), 46.5, 12296, 12041, 0x406e042a861fe8eb, 0x4046800000000000, 4},
	} {
		cfg := Config{Profile: pin.profile, Market: train, Deadline: pin.deadline, Workers: 1}
		res, err := OptimizeContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Evals != pin.evals || res.Pruned != pin.pruned ||
			math.Float64bits(res.Est.Cost) != pin.cost || math.Float64bits(res.Est.Time) != pin.time ||
			len(res.Plan.Groups) != pin.groups {
			t.Errorf("%s@%g: evals %d pruned %d cost %#x time %#x groups %d, pinned %d %d %#x %#x %d",
				pin.profile.Name, pin.deadline, res.Evals, res.Pruned,
				math.Float64bits(res.Est.Cost), math.Float64bits(res.Est.Time), len(res.Plan.Groups),
				pin.evals, pin.pruned, pin.cost, pin.time, pin.groups)
		}
		// The exhaustive and the two-worker search cover the same
		// evals+pruned leaves and return the same bytes.
		for _, variant := range []func(*Config){
			func(c *Config) { c.DisablePruning = true },
			func(c *Config) { c.Workers = 2 },
		} {
			v := cfg
			variant(&v)
			got, err := OptimizeContext(context.Background(), v)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(got) != fingerprint(res) || got.Evals+got.Pruned != pin.evals+pin.pruned {
				t.Errorf("%s@%g variant (pruning off %v, workers %d): %d leaves, plan\n%swant %d leaves, plan\n%s",
					pin.profile.Name, pin.deadline, v.DisablePruning, v.Workers,
					got.Evals+got.Pruned, fingerprint(got), pin.evals+pin.pruned, fingerprint(res))
			}
		}
	}
}

// TestPlanMissSweepPinnedAtParent pins a sweep, not three points: the
// sha256 of (plan bits, Est bits, Evals, Pruned) over every plan-miss
// preset at six stratified deadlines on the 96 h and 24 h windows, under
// each knob set below, plus a WarmBound-seeded and a deliberately
// inadmissible warm start per point and a Workers: 2 plan-only
// fingerprint. The literal was computed before the leaf walk learned to
// stop at the incumbent; a search change that moves any plan or counter
// moves it.
func TestPlanMissSweepPinnedAtParent(t *testing.T) {
	const want = "53eb4d5ad436884cef73c65b6831657e5a1dea822b2f44a86870dc6c4430bd18"
	ctx := context.Background()
	deadlines := planMissDeadlines(stats.NewRNG(1), 6)
	windows := []struct {
		name string
		view cloud.MarketView
	}{{"96h", planMissWindow(96)}, {"24h", planMissWindow(24)}}
	knobs := []struct {
		name   string
		mutate func(*Config)
	}{
		{"defaults", func(*Config) {}},
		{"max-all-fail", func(c *Config) { c.MaxAllFail = 0.1 }},
		{"no checkpoints", func(c *Config) { c.DisableCheckpoints = true }},
		{"k2 grid4 max4", func(c *Config) { c.Kappa, c.GridLevels, c.MaxGroups = 2, 4, 4 }},
		{"k3 max12 grid8", func(c *Config) { c.Kappa, c.MaxGroups, c.GridLevels = 3, 12, 8 }},
	}
	h := sha256.New()
	run := func(label string, cfg Config, counters bool) Result {
		t.Helper()
		res, err := OptimizeContext(ctx, cfg)
		if err != nil && !errors.Is(err, ErrDeadlineInfeasible) {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(h, "%s err=%v\n%s", label, err, fingerprint(res))
		if counters {
			fmt.Fprintf(h, "evals=%d pruned=%d retried=%v\n", res.Evals, res.Pruned, res.WarmRetried)
		}
		return res
	}
	plans, retried := 0, 0
	for _, name := range planMissPresets {
		p, ok := app.ByName(name)
		if !ok {
			t.Fatalf("no preset %q", name)
		}
		for _, d := range deadlines {
			cold := make([]Result, len(windows))
			for i, w := range windows {
				base := Config{Profile: p, Market: w.view, Deadline: d, Workers: 1}
				point := fmt.Sprintf("%s %s %x", w.name, name, d)
				for j, k := range knobs {
					cfg := base
					k.mutate(&cfg)
					if res := run(point+" "+k.name, cfg, true); j == 0 {
						cold[i] = res
					}
				}
				two := base
				two.Workers = 2
				run(point+" workers 2", two, false)
				plans += len(knobs) + 1
			}
			for i, w := range windows {
				base := Config{Profile: p, Market: w.view, Deadline: d, Workers: 1}
				point := fmt.Sprintf("%s %s %x", w.name, name, d)
				// The other window's plan re-priced on this one: the seed a
				// session brings across a market change.
				warm := base
				if hint, ok := WarmBound(base, cold[len(windows)-1-i].Plan); ok {
					warm.InitialIncumbent = hint
				}
				run(point+" warm", warm, true)
				plans++
				if len(cold[i].Plan.Groups) == 0 {
					continue
				}
				bad := base
				bad.InitialIncumbent = cold[i].Est.Cost * 0.5
				if res := run(point+" inadmissible", bad, true); !res.WarmRetried {
					t.Errorf("%s: inadmissible seed %v (optimum %v) not retried", point, bad.InitialIncumbent, cold[i].Est.Cost)
				}
				plans++
				retried++
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d plans hashed, %d inadmissible seeds retried: %s", plans, retried, got)
	if got != want {
		t.Errorf("sweep hash %s, pinned %s", got, want)
	}
}
