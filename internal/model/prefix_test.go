package model

import (
	"math"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/stats"
)

// stackLeaf pushes all but the last of pgs (the stack must be empty) and
// prices the last as a leaf with no limit, the way the optimizer's DFS
// does under DisablePruning.
func stackLeaf(s *PrefixStack, pgs []*PreparedGroup, od OnDemand) (cost, costSpot, eMinRatio float64) {
	last := pgs[len(pgs)-1]
	for _, pg := range pgs[:len(pgs)-1] {
		s.Push(pg)
	}
	cost, _ = s.LeafCost(last, od.T, od.Rate(), math.Inf(1))
	costSpot, eMinRatio, _ = s.leaf(last, od.T, od.Rate(), math.Inf(1))
	for range pgs[:len(pgs)-1] {
		s.Pop()
	}
	return cost, costSpot, eMinRatio
}

// assertLeafBits requires the stack's four numbers to equal the reference
// evaluator's to the bit.
func assertLeafBits(t *testing.T, label string, s *PrefixStack, pgs []*PreparedGroup, od OnDemand) {
	t.Helper()
	want := EvaluatePrepared(pgs, od)
	cost, costSpot, eMin := stackLeaf(s, pgs, od)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"Cost", cost, want.Cost},
		{"CostSpot", costSpot, want.CostSpot},
		{"CostOD", eMin * od.T * od.Rate(), want.CostOD},
		{"EMinRatio", eMin, want.EMinRatio},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s: %s = %v (%#x), reference %v (%#x)", label, c.name,
				c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
	assertLeafLimit(t, label, s, pgs, od, want)
}

// assertLeafLimit checks the bounded walk against the reference cost at
// limits on both sides of it: a limit at or above the cost walks in full
// to the reference bits, one below it (even by one ulp) stops with a
// partial cost strictly above the limit and at most the reference.
func assertLeafLimit(t *testing.T, label string, s *PrefixStack, pgs []*PreparedGroup, od OnDemand, ref Estimate) {
	t.Helper()
	last := pgs[len(pgs)-1]
	for _, pg := range pgs[:len(pgs)-1] {
		s.Push(pg)
	}
	defer func() {
		for range pgs[:len(pgs)-1] {
			s.Pop()
		}
	}()
	want, spot := ref.Cost, ref.CostSpot
	for _, limit := range []float64{want, math.Nextafter(want, math.Inf(1)), math.Nextafter(want, 0), (spot + want) / 2, spot} {
		cost, within := s.LeafCost(last, od.T, od.Rate(), limit)
		switch {
		case within != (want <= limit):
			t.Fatalf("%s: limit %v against cost %v: within %v", label, limit, want, within)
		case within && math.Float64bits(cost) != math.Float64bits(want):
			t.Fatalf("%s: limit %v: full walk cost %#x, reference %#x", label, limit, math.Float64bits(cost), math.Float64bits(want))
		case !within && !(limit < cost && cost <= want):
			t.Fatalf("%s: limit %v: cut at %v, reference %v", label, limit, cost, want)
		}
	}
}

// TestStackCostMatchesEvaluator is the differential gate for the prefix
// stack: over market seeds × every app preset × checkpoints on/off, random
// subsets of 1–6 prepared groups in random order with random grid bids
// must price bit-identically to EvaluatePrepared.
func TestStackCostMatchesEvaluator(t *testing.T) {
	const levels, kappa = 6, 6
	presets := []string{"BT", "SP", "LU", "FT", "IS", "BTIO", "LAMMPS-32", "LAMMPS-128"}
	cases, residues := 0, 0
	for _, seed := range []uint64{3, 11, 2015} {
		m := testMarket(seed)
		rng := stats.NewRNG(seed)
		for _, name := range presets {
			p, ok := app.ByName(name)
			if !ok {
				t.Fatalf("no preset %q", name)
			}
			od := NewOnDemand(p, cloud.CC28XLarge)
			for _, checkpoints := range []bool{true, false} {
				var grid [][]*PreparedGroup
				for _, it := range cloud.DefaultCatalog() {
					for _, zone := range cloud.DefaultZones() {
						g := NewGroup(p, it, zone, m.Trace(it.Name, zone))
						var bids []*PreparedGroup
						for l := 0; l < levels; l++ {
							interval := float64(g.T)
							if checkpoints {
								interval = 0.5 + rng.Float64()*(interval-0.5)
							}
							bids = append(bids, Prepare(GroupPlan{Group: g, Bid: g.MaxBid() / math.Pow(2, float64(l)), Interval: interval}))
						}
						grid = append(grid, bids)
					}
				}
				s := NewPrefixStack(grid, kappa-1)
				for trial := 0; trial < 40; trial++ {
					k := 1 + rng.Intn(kappa)
					pgs := make([]*PreparedGroup, k)
					for i, gi := range rng.Perm(len(grid))[:k] {
						pgs[i] = grid[gi][rng.Intn(levels)]
					}
					assertLeafBits(t, name, s, pgs, od)
					cases++
					for _, pg := range pgs {
						if pg.ratioTail[len(pg.ratioTail)-1] != 0 {
							residues++
						}
					}
				}
			}
		}
	}
	if residues == 0 {
		t.Error("no drawn group ended its survival function on a non-zero residue; the sweep lost that case")
	}
	t.Logf("%d random subsets priced bit-identically, %d group draws ending on a non-zero residue", cases, residues)
}

// TestStackCostEdgeCases pins the two places a merged walk can drift from
// the k-way reference: a group whose survival function ends on a non-zero
// rounding residue (it must keep contributing that residue after its last
// support point, in whatever position it is pushed), and groups whose
// support points coincide (one segment, not two).
func TestStackCostEdgeCases(t *testing.T) {
	od := defaultRecovery()
	residue := &PreparedGroup{
		costSpot:  3.25,
		ratioVals: []float64{0, 0.25, 0.5},
		ratioTail: []float64{1, 0.7, 0.3, 1.0 / 1024},
	}
	long := &PreparedGroup{
		costSpot:  1.5,
		ratioVals: []float64{0.125, 0.25, 0.75, 1},
		ratioTail: []float64{1, 0.9, 0.6, 0.2, 0},
	}
	twin := &PreparedGroup{
		costSpot:  0.75,
		ratioVals: []float64{0, 0.25, 0.5, 1},
		ratioTail: []float64{1, 0.8, 0.5, 0.1, 1.0 / 4096},
	}
	// The fixture is only worth anything if the residue reaches the answer.
	zeroed := &PreparedGroup{costSpot: residue.costSpot, ratioVals: residue.ratioVals, ratioTail: []float64{1, 0.7, 0.3, 0}}
	if with, without := EvaluatePrepared([]*PreparedGroup{residue, long}, od), EvaluatePrepared([]*PreparedGroup{zeroed, long}, od); with.EMinRatio == without.EMinRatio {
		t.Fatalf("fixture does not exercise the residue: EMinRatio %v either way", with.EMinRatio)
	}
	s := NewPrefixStack(nil, 2) // sized for no group at all: every level grows
	for _, pgs := range [][]*PreparedGroup{
		{residue}, {long}, {twin},
		{residue, long}, {long, residue}, {residue, twin}, {twin, residue},
		{residue, long, twin}, {long, twin, residue}, {twin, residue, long},
		{residue, residue}, {long, long, long},
	} {
		assertLeafBits(t, "edge", s, pgs, od)
	}
}

// TestStackCostMatchesBrute cross-checks the stack against the paper's
// joint enumeration on a case small enough to enumerate, as the reference
// evaluator's own tests do.
func TestStackCostMatchesBrute(t *testing.T) {
	p := planOf(
		GroupPlan{Group: smallGroup(5, cloud.ZoneA, 6), Bid: 0.05, Interval: 2},
		GroupPlan{Group: smallGroup(5, cloud.ZoneB, 7), Bid: 0.04, Interval: 7}, // checkpoints disabled
		GroupPlan{Group: smallGroup(5, cloud.ZoneC, 5), Bid: 0.02, Interval: 1},
	)
	pgs := make([]*PreparedGroup, len(p.Groups))
	for i, gp := range p.Groups {
		pgs[i] = Prepare(gp)
	}
	s := NewPrefixStack([][]*PreparedGroup{pgs}, len(pgs)-1)
	cost, costSpot, eMin := stackLeaf(s, pgs, p.Recovery)
	brute := EvaluateBrute(p)
	if !closeEnough(cost, brute.Cost) || !closeEnough(costSpot, brute.CostSpot) || !closeEnough(eMin, brute.EMinRatio) {
		t.Fatalf("stack (cost %v, spot %v, E[min ratio] %v) vs brute (%v, %v, %v)",
			cost, costSpot, eMin, brute.Cost, brute.CostSpot, brute.EMinRatio)
	}
}
