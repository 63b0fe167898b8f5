package opt

import (
	"context"
	"math"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/model"
)

// planMissMarket is the training view a plan-miss request sees: sompid's
// -hours 336 -seed 2015 market, trailing 96 h.
func planMissMarket() cloud.MarketView {
	snap := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), 336, 2015).Capture()
	frontier := snap.MinDuration()
	return snap.Window(frontier-96, 96)
}

// TestLeafCostNeverRejectsAnAcceptableLeaf runs the serial search with
// the reference evaluator beside every leaf: the cost the prefix stack
// gave the leaf must equal Estimate.Cost to the bit, and a leaf the
// cost-first test turned away must be one the reference predicate (cost,
// deadline, MaxAllFail) would have turned away too.
func TestLeafCostNeverRejectsAnAcceptableLeaf(t *testing.T) {
	train := planMissMarket()
	leaves, passed := 0, 0
	var ev model.Evaluator
	leafAudit = func(s *searcher, last *model.PreparedGroup, cost float64) {
		leaves++
		est := ev.EvaluatePrepared(append(s.pgs, last), s.od)
		if math.Float64bits(cost) != math.Float64bits(est.Cost) {
			t.Fatalf("subset %v: stack cost %v (%#x), reference %v (%#x)",
				s.subset, cost, math.Float64bits(cost), est.Cost, math.Float64bits(est.Cost))
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
			before := leaves
			res, err := OptimizeContext(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, p.Name, err)
			}
			// Evals = the baseline + the ranking evaluations + one per leaf.
			if ranked := res.Evals - (leaves - before); ranked < 1 || ranked > 1+12*cfg.withDefaults().GridLevels {
				t.Errorf("%s %s: Evals %d does not count %d leaves once each", tc.name, p.Name, res.Evals, leaves-before)
			}
		}
	}
	t.Logf("%d leaves audited, %d passed the cost test and paid for a full estimate", leaves, passed)
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
