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

// eagerStack is the prefix stack as it was before levels merged on
// demand: Push merges the whole level at once. It is the reference the
// lazy stack must match, walk for walk, to the bit.
type eagerStack struct{ steps []eagerStep }

type eagerStep struct {
	vals, tail []float64
	costSpot   float64
}

func newEagerStack() *eagerStack {
	return &eagerStack{steps: []eagerStep{{tail: []float64{1}}}}
}

// push places pg and reports how many support points its level merged.
func (s *eagerStack) push(pg *PreparedGroup) int {
	top := s.steps[len(s.steps)-1]
	xs, vs := top.vals, top.tail
	gx, gv := pg.ratioStep()
	ox, ov := make([]float64, len(xs)+len(gx)), make([]float64, len(xs)+len(gx)+1)
	i, j, k := 0, 0, 0
	for ; i < len(xs) && j < len(gx); k++ {
		ov[k] = vs[i] * gv[j]
		next := xs[i]
		switch g := gx[j]; {
		case next < g:
			i++
		case g < next:
			next = g
			j++
		default:
			i++
			j++
		}
		ox[k] = next
	}
	for ; i < len(xs); i, k = i+1, k+1 {
		ox[k], ov[k] = xs[i], vs[i]*gv[j]
	}
	for ; j < len(gx); j, k = j+1, k+1 {
		ox[k], ov[k] = gx[j], vs[i]*gv[j]
	}
	ov[k] = vs[i] * gv[j]
	s.steps = append(s.steps, eagerStep{ox[:k], ov[:k+1], top.costSpot + pg.costSpot})
	return k
}

func (s *eagerStack) pop() { s.steps = s.steps[:len(s.steps)-1] }

func (s *eagerStack) leafCost(last *PreparedGroup, odT, rate, limit float64) (cost float64, within bool) {
	top := s.steps[len(s.steps)-1]
	costSpot := top.costSpot + last.costSpot
	if costSpot > limit {
		return costSpot, false
	}
	xs, vs := top.vals, top.tail
	gx, gv := last.ratioStep()
	i, j := 0, 0
	prev, e := 0.0, 0.0
	for i < len(xs) && j < len(gx) {
		prod := vs[i] * gv[j]
		next := xs[i]
		switch g := gx[j]; {
		case next < g:
			i++
		case g < next:
			next = g
			j++
		default:
			i++
			j++
		}
		e += (next - prev) * prod
		prev = next
		if costSpot+e*odT*rate > limit {
			return costSpot + e*odT*rate, false
		}
	}
	rx, rv, hold := xs[i:], vs[i:], gv[j]
	if j < len(gx) {
		rx, rv, hold = gx[j:], gv[j:], vs[i]
	}
	for k, x := range rx {
		e += (x - prev) * (rv[k] * hold)
		prev = x
		if costSpot+e*odT*rate > limit {
			return costSpot + e*odT*rate, false
		}
	}
	return costSpot + e*odT*rate, true
}

// checkStackOps drives the lazy stack s and the eager reference through
// one sequence of pushes, leaves and pops read off ops, and requires every
// leaf's (cost, within) bits to agree and its LeafBound to be at most its
// full cost; each group's E[Ratio] must be its one-group EMinRatio to the
// bit. A byte's low two bits pick the operation (push, push, leaf, pop),
// the next three the group, the top three the leaf's limit: the full
// cost, one ulp above or below it, well below it, the spot-cost sum,
// +Inf, 0, or midway. s must be empty and sized for at least depth
// pushes.
func checkStackOps(t *testing.T, s *PrefixStack, groups []*PreparedGroup, depth int, odT, rate float64, ops []byte) {
	t.Helper()
	for i, pg := range groups {
		if want := EvaluatePrepared([]*PreparedGroup{pg}, OnDemand{}).EMinRatio; math.Float64bits(pg.eRatio) != math.Float64bits(want) {
			t.Fatalf("group %d: E[Ratio] %v (%#x), one-group EMinRatio %v (%#x)",
				i, pg.eRatio, math.Float64bits(pg.eRatio), want, math.Float64bits(want))
		}
	}
	ref := newEagerStack()
	defer func() {
		for len(ref.steps) > 1 {
			ref.pop()
			s.Pop()
		}
	}()
	for n, b := range ops {
		pg := groups[int(b>>2&7)%len(groups)]
		switch b & 3 {
		case 0, 1:
			if len(ref.steps) <= depth {
				ref.push(pg)
				s.Push(pg)
			}
		case 3:
			if len(ref.steps) > 1 {
				ref.pop()
				s.Pop()
			}
		case 2:
			full, _ := ref.leafCost(pg, odT, rate, math.Inf(1))
			spot := ref.steps[len(ref.steps)-1].costSpot + pg.costSpot
			limit := [8]float64{
				full, math.Nextafter(full, math.Inf(1)), math.Nextafter(full, 0),
				spot + (full-spot)/8, spot, math.Inf(1), 0, (spot + full) / 2,
			}[b>>5]
			want, wantWithin := ref.leafCost(pg, odT, rate, limit)
			got, within := s.LeafCost(pg, odT, rate, limit)
			if within != wantWithin || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d (depth %d, limit %v, full %v): lazy (%v %#x, %v), eager (%v %#x, %v)",
					n, len(ref.steps)-1, limit, full, got, math.Float64bits(got), within, want, math.Float64bits(want), wantWithin)
			}
			if within != (full <= limit) {
				t.Fatalf("op %d: limit %v against full cost %v: within %v", n, limit, full, within)
			}
			if bound := s.LeafBound(pg, odT, rate); !(bound <= full) {
				t.Fatalf("op %d (depth %d): bound %v (%#x) above the full cost %v (%#x)",
					n, len(ref.steps)-1, bound, math.Float64bits(bound), full, math.Float64bits(full))
			}
		}
	}
}

// randomStep builds a group with a random survival step on a coarse
// lattice, so support points coincide across groups: up to 24 points in
// (0, 1], the range of a Ratio, sometimes a leading 0, a non-increasing
// tail from 1 that ends on 0 or on a small residue.
func randomStep(rng *stats.RNG) *PreparedGroup {
	pg := &PreparedGroup{costSpot: rng.Float64() * 4, ratioTail: []float64{1}}
	if rng.Intn(3) == 0 {
		pg.ratioVals = append(pg.ratioVals, 0)
		pg.ratioTail = append(pg.ratioTail, 1-rng.Float64()/8)
	}
	x, tail := 0, pg.ratioTail[len(pg.ratioTail)-1]
	for n := rng.Intn(25); n > 0 && x < 30; n-- {
		x += 1 + rng.Intn(3)
		tail *= rng.Float64()
		pg.ratioVals = append(pg.ratioVals, float64(x)/32)
		pg.ratioTail = append(pg.ratioTail, tail)
	}
	if rng.Intn(2) == 0 {
		pg.ratioTail[len(pg.ratioTail)-1] = 0
	}
	pg.eRatio = pg.meanRatio()
	return pg
}

// ratioAlways builds a group whose Ratio is r with certainty: r = 1 is a
// group that always fails before its first checkpoint, r = 0 one that
// always completes. Either way P(Ratio > x) is constant on (0, 1), the
// case where Chebyshev's inequality, and so LeafBound, is an equality.
func ratioAlways(r, costSpot float64) *PreparedGroup {
	pg := &PreparedGroup{costSpot: costSpot, ratioVals: []float64{r}, ratioTail: []float64{1, 0}}
	pg.eRatio = pg.meanRatio()
	return pg
}

// checkRandomStack builds one to six random groups, a group whose Ratio
// is always 1 and one whose Ratio is always 0, and the odT and rate from
// seed, then runs ops through checkStackOps on a stack of depth 4; an odd
// seed sizes the stack for no group, so every level grows its buffers on
// Push.
func checkRandomStack(t *testing.T, seed uint64, ops []byte) {
	t.Helper()
	rng := stats.NewRNG(seed)
	groups := make([]*PreparedGroup, 1+rng.Intn(6))
	for i := range groups {
		groups[i] = randomStep(rng)
	}
	groups = append(groups, ratioAlways(1, rng.Float64()*4), ratioAlways(0, rng.Float64()*4))
	const depth = 4
	var s *PrefixStack
	if seed%2 == 1 {
		s = NewPrefixStack(nil, depth)
	} else {
		s = NewPrefixStack([][]*PreparedGroup{groups}, depth)
	}
	checkStackOps(t, s, groups, depth, 1+rng.Float64()*50, 0.25+rng.Float64()*3, ops)
}

// FuzzPrefixStack is the differential gate between the lazy stack and
// the eager one it replaced: random groups, random push/leaf/pop
// sequences, limits at, one ulp either side of and well below each
// leaf's full cost. It also holds LeafBound at or below every full cost.
func FuzzPrefixStack(f *testing.F) {
	f.Add(uint64(1), []byte{0, 4, 8, 2, 34, 66, 98, 130, 3, 12, 2, 162, 194, 226})
	f.Add(uint64(2), []byte{0, 1, 4, 98, 2, 226, 3, 3, 8, 12, 16, 66, 34, 7, 11, 194, 2})
	f.Add(uint64(43), []byte("882"))
	f.Add(uint64(42), []byte{0, 5, 9, 13, 98, 98, 34, 66, 3, 17, 2, 2, 130, 162})
	f.Fuzz(checkRandomStack)
}

// TestStackMatchesEagerReference runs the fuzz target's check over a
// fixed sweep: random groups under 400 seeds, and real prepared groups
// from one market's grid, with operation sequences long enough that cut
// leaves leave levels half merged beneath later leaves. Every leaf's
// LeafBound must be at most its full cost.
func TestStackMatchesEagerReference(t *testing.T) {
	rng := stats.NewRNG(9)
	ops := func() []byte {
		b := make([]byte, 64)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return b
	}
	for seed := uint64(0); seed < 400; seed++ {
		checkRandomStack(t, seed, ops())
	}
	m := testMarket(5)
	od := NewOnDemand(app.LAMMPS(128), cloud.CC28XLarge)
	var groups []*PreparedGroup
	for _, it := range cloud.DefaultCatalog() {
		for _, zone := range cloud.DefaultZones() {
			g := NewGroup(app.LAMMPS(128), it, zone, m.Trace(it.Name, zone))
			for _, f := range []float64{1, 0.25} {
				groups = append(groups, Prepare(GroupPlan{Group: g, Bid: g.MaxBid() * f, Interval: 3}))
			}
		}
	}
	const depth = 3
	s := NewPrefixStack([][]*PreparedGroup{groups}, depth)
	for trial := 0; trial < 40; trial++ {
		sub := make([]*PreparedGroup, 8)
		for i, gi := range rng.Perm(len(groups))[:len(sub)] {
			sub[i] = groups[gi]
		}
		checkStackOps(t, s, sub, depth, od.T, od.Rate(), ops())
	}
}

// TestLeafBoundEqualityCases prices leaves that mix a group whose Ratio
// is always 1 or always 0 with groups that end on no residue: there
// Chebyshev's inequality is an equality, E[min Ratio] is the product of
// the E[Ratio]s to the bit, and only the 2⁻³⁰ deflation keeps LeafBound
// below the cost. The bound must sit below the full cost, within 2⁻²⁹ of
// it, in every push order.
func TestLeafBoundEqualityCases(t *testing.T) {
	one, zero := ratioAlways(1, 1.25), ratioAlways(0, 0.5)
	rng := stats.NewRNG(17)
	var plain []*PreparedGroup
	for len(plain) < 4 {
		if pg := randomStep(rng); pg.ratioTail[len(pg.ratioTail)-1] == 0 && pg.eRatio > 0 {
			plain = append(plain, pg)
		}
	}
	od := defaultRecovery()
	s := NewPrefixStack(nil, 3)
	leaves := [][]*PreparedGroup{{one}, {zero}, {one, one}, {one, zero}, {zero, one}, {one, one, one}}
	for _, g := range plain {
		leaves = append(leaves, []*PreparedGroup{one, g}, []*PreparedGroup{g, one},
			[]*PreparedGroup{zero, g}, []*PreparedGroup{g, zero}, []*PreparedGroup{one, g, one})
	}
	for n, pgs := range leaves {
		last := pgs[len(pgs)-1]
		for _, pg := range pgs[:len(pgs)-1] {
			s.Push(pg)
		}
		cost, _ := s.LeafCost(last, od.T, od.Rate(), math.Inf(1))
		bound := s.LeafBound(last, od.T, od.Rate())
		for range pgs[:len(pgs)-1] {
			s.Pop()
		}
		if !(bound < cost && cost-bound <= cost*0x1p-29) {
			t.Errorf("leaf %d: bound %v (%#x) against cost %v (%#x): want just below it",
				n, bound, math.Float64bits(bound), cost, math.Float64bits(cost))
		}
	}
}
