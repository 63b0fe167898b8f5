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
// pruning off no subtree is cut. Evals counts the leaves the search
// visited, which are the audited leaves outside hull-cut subtrees, and
// Evals + Pruned is the whole space.
func TestLeafCostNeverRejectsAnAcceptableLeaf(t *testing.T) {
	train := planMissMarket()
	leaves, passed, cut, bounded, hullCut := 0, 0, 0, 0, 0
	var ev model.Evaluator
	var winner []model.GroupPlan
	var audited *searcher
	leafAudit = func(s *searcher, last *model.PreparedGroup, cost, limit float64, within bool) {
		leaves++
		audited = s
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
			audited = nil
			res, err := OptimizeContext(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, p.Name, err)
			}
			if audited == nil {
				t.Fatalf("%s %s: no leaf audited", tc.name, p.Name)
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
			// Evals = the baseline + the ranking evaluations + one per leaf
			// the search visited, cut by its bound or walked in full; the
			// leaves of hull-cut subtrees are audited but not visited.
			// Evals + Pruned covers the space once.
			visited := (leaves - before) - (hullCut - hullCutBefore)
			if ranked := res.Evals - visited; audited.evals != visited || ranked < 1 || ranked > 1+12*cfg.withDefaults().GridLevels {
				t.Errorf("%s %s: Evals %d (%d in the search) does not count the %d visited leaves once each",
					tc.name, p.Name, res.Evals, audited.evals, visited)
			}
			if space := subsetSpace(audited.prepared, audited.kappa); audited.evals+audited.pruned != space {
				t.Errorf("%s %s: the search's evals %d + pruned %d do not cover its %d leaves",
					tc.name, p.Name, audited.evals, audited.pruned, space)
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

// subsetSpace is the number of leaves in the κ-subset space: every bid
// combination of every subset of at most kappa groups.
func subsetSpace(prepared [][]*model.PreparedGroup, kappa int) int {
	// ways[k] is the number of bid combinations of k-subsets of the
	// groups seen so far.
	ways := make([]int, kappa+1)
	ways[0] = 1
	for _, bids := range prepared {
		for k := kappa; k >= 1; k-- {
			ways[k] += ways[k-1] * len(bids)
		}
	}
	total := 0
	for _, w := range ways[1:] {
		total += w
	}
	return total
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

// TestPlanMissPinnedAtParent pins three plan-miss configurations. The
// plan literals (cost, time, groups) are the ones the per-leaf k-way
// evaluator produced at the commit before the prefix stack replaced it.
// The counter literals (evals, pruned) are a pure function of the Config
// (B5) and hold which leaves the search visits and which a bound settles
// unvisited; they were set when a hull-cut subtree's leaves went to
// Pruned without a count of its walk. The two are checked apart, so a
// change to what the counters count moves only the counter literals,
// and any drift in what a leaf costs, or in which leaves the incumbent
// lets through, moves the plan literals or the counters.
func TestPlanMissPinnedAtParent(t *testing.T) {
	train := planMissMarket()
	for _, pin := range []struct {
		profile       app.Profile
		deadline      float64
		cost, time    uint64
		groups        int
		evals, pruned int
	}{
		{app.BT(), 100, 0x40635804a614906a, 0x403d000000000000, 1, 177, 103768},
		{app.IS(), 46.5, 0x40526eb3b172ed60, 0x401fe365a8b31bd9, 1, 744, 103201},
		{app.LAMMPS(128), 46.5, 0x406e042a861fe8eb, 0x4046800000000000, 4, 247, 24090},
	} {
		cfg := Config{Profile: pin.profile, Market: train, Deadline: pin.deadline}
		res, err := OptimizeContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Est.Cost) != pin.cost || math.Float64bits(res.Est.Time) != pin.time ||
			len(res.Plan.Groups) != pin.groups {
			t.Errorf("%s@%g: cost %#x time %#x groups %d, pinned %#x %#x %d",
				pin.profile.Name, pin.deadline,
				math.Float64bits(res.Est.Cost), math.Float64bits(res.Est.Time), len(res.Plan.Groups),
				pin.cost, pin.time, pin.groups)
		}
		if res.Evals != pin.evals || res.Pruned != pin.pruned {
			t.Errorf("%s@%g: evals %d pruned %d, pinned %d %d",
				pin.profile.Name, pin.deadline, res.Evals, res.Pruned, pin.evals, pin.pruned)
		}
		// The exhaustive search covers the same evals+pruned leaves and
		// returns the same bytes.
		ex := cfg
		ex.DisablePruning = true
		got, err := OptimizeContext(context.Background(), ex)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(got) != fingerprint(res) || got.Evals+got.Pruned != res.Evals+res.Pruned {
			t.Errorf("%s@%g exhaustive: %d leaves, plan\n%swant %d leaves, plan\n%s",
				pin.profile.Name, pin.deadline,
				got.Evals+got.Pruned, fingerprint(got), res.Evals+res.Pruned, fingerprint(res))
		}
	}
}

// TestPlanMissSweepPinnedAtParent pins a sweep, not three points, over
// every plan-miss preset at six stratified deadlines on the 96 h and 24 h
// windows, under each knob set below. It keeps two sha256 hashes: one of
// (error, plan bits, Est bits) and one of (Evals, Pruned), each line
// labelled with its point. The plan literal was computed at the commit
// before the warm-start seed was deleted, over these cold searches only;
// a search change that moves any plan or estimate moves it. The counter
// literal was set when a hull-cut subtree's leaves went to Pruned
// unvisited; a change to which leaves the search visits moves it alone.
func TestPlanMissSweepPinnedAtParent(t *testing.T) {
	const (
		wantPlans    = "af60fae211ff623efe744cd660efb706bdfebdeb1857ab7352b73eb46d3749ed"
		wantCounters = "30d93b6e6f0a265bfc224a6859e615e4723678ef5590d680ffe2172861cddbed"
	)
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
	planHash, counterHash := sha256.New(), sha256.New()
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
					fmt.Fprintf(planHash, "%s err=%v\n%s", label, err, fingerprint(res))
					fmt.Fprintf(counterHash, "%s evals=%d pruned=%d\n", label, res.Evals, res.Pruned)
					plans++
				}
			}
		}
	}
	gotPlans := hex.EncodeToString(planHash.Sum(nil))
	gotCounters := hex.EncodeToString(counterHash.Sum(nil))
	t.Logf("%d plans hashed: plans %s, counters %s", plans, gotPlans, gotCounters)
	if gotPlans != wantPlans {
		t.Errorf("sweep plan hash %s, pinned %s", gotPlans, wantPlans)
	}
	if gotCounters != wantCounters {
		t.Errorf("sweep counter hash %s, pinned %s", gotCounters, wantCounters)
	}
}
