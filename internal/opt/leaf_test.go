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
// (cost, deadline, MaxAllFail) would have turned away too. A leaf cut at
// the incumbent, by its O(1) bound or partway through its walk, must cost
// strictly more than the limit it was cut against, its bound or partial
// cost at most that, and it must not be the plan the search returns. The
// audit walks the subtrees searcher.cutSubtree settles by their suffix
// hull as well: a leaf there must be one its own bound cuts, and with
// pruning off no subtree is cut.
func TestLeafCostNeverRejectsAnAcceptableLeaf(t *testing.T) {
	train := planMissMarket()
	leaves, passed, cut, bounded, hullCut := 0, 0, 0, 0, 0
	var ev model.Evaluator
	var winner []model.GroupPlan
	leafAudit = func(s *searcher, last *model.PreparedGroup, cost, limit float64, within bool) {
		leaves++
		pgs := append(s.pgs, last)
		est := ev.EvaluatePrepared(pgs, s.od)
		if s.hullCut {
			hullCut++
			if bound := s.stack.LeafBound(last, s.odT, s.odRate); within || !(bound > limit) || samePlan(pgs, winner) {
				t.Fatalf("subset %v: a leaf of a hull-cut loop has bound %v against limit %v (within %v, winner %v)",
					s.subset, bound, limit, within, samePlan(pgs, winner))
			}
		}
		if !within {
			cut++
			if s.stack.LeafBound(last, s.odT, s.odRate) > limit {
				bounded++
			}
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
			before, cutBefore, hullCutBefore := leaves, cut, hullCut
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
			if cfg.DisablePruning && hullCut != hullCutBefore {
				t.Errorf("%s %s: %d leaves in hull-cut loops with pruning off", tc.name, p.Name, hullCut-hullCutBefore)
			}
			// Evals = the baseline + the ranking evaluations + one per leaf,
			// cut or walked in full.
			if ranked := res.Evals - (leaves - before); ranked < 1 || ranked > 1+12*cfg.withDefaults().GridLevels {
				t.Errorf("%s %s: Evals %d does not count %d leaves once each", tc.name, p.Name, res.Evals, leaves-before)
			}
		}
	}
	t.Logf("%d leaves audited: %d cut by bound, %d cut in walk, %d passed the cost test and paid for a full estimate",
		leaves, bounded, cut-bounded, passed)
	t.Logf("%d of the leaves cut by bound were in loops cut by their hull", hullCut)
	if hullCut == 0 {
		t.Error("no loop was cut by its hull")
	}
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
// Config (B5), so any drift in what a leaf costs, or in
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
		cfg := Config{Profile: pin.profile, Market: train, Deadline: pin.deadline}
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
		// The exhaustive search covers the same evals+pruned leaves and
		// returns the same bytes.
		ex := cfg
		ex.DisablePruning = true
		got, err := OptimizeContext(context.Background(), ex)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(got) != fingerprint(res) || got.Evals+got.Pruned != pin.evals+pin.pruned {
			t.Errorf("%s@%g exhaustive: %d leaves, plan\n%swant %d leaves, plan\n%s",
				pin.profile.Name, pin.deadline,
				got.Evals+got.Pruned, fingerprint(got), pin.evals+pin.pruned, fingerprint(res))
		}
	}
}

// TestPlanMissSweepPinnedAtParent pins a sweep, not three points: the
// sha256 of (plan bits, Est bits, Evals, Pruned) over every plan-miss
// preset at six stratified deadlines on the 96 h and 24 h windows, under
// each knob set below. The literal was computed at the commit before the
// warm-start seed was deleted, over these cold searches only; a search
// change that moves any plan or counter moves it.
func TestPlanMissSweepPinnedAtParent(t *testing.T) {
	const want = "5934a0bed007f8a918ed6adc75db44e9a82d6490a81a43a95e28125417a925f2"
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
	plans := 0
	for _, name := range planMissPresets {
		p, ok := app.ByName(name)
		if !ok {
			t.Fatalf("no preset %q", name)
		}
		for _, d := range deadlines {
			for _, w := range windows {
				for _, k := range knobs {
					cfg := Config{Profile: p, Market: w.view, Deadline: d}
					k.mutate(&cfg)
					label := fmt.Sprintf("%s %s %x %s", w.name, name, d, k.name)
					res, err := OptimizeContext(ctx, cfg)
					if err != nil && !errors.Is(err, ErrDeadlineInfeasible) {
						t.Fatalf("%s: %v", label, err)
					}
					fmt.Fprintf(h, "%s err=%v\n%sevals=%d pruned=%d\n", label, err, fingerprint(res), res.Evals, res.Pruned)
					plans++
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d plans hashed: %s", plans, got)
	if got != want {
		t.Errorf("sweep hash %s, pinned %s", got, want)
	}
}
