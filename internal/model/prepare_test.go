package model

import (
	"math"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/failure"
)

// prepareRef is the sort-based derivation Prepare's walk replaced: map
// each t with mass through Ratio and SpotTime, stable-sort the values,
// merge adjacent equal ones, then form the survival and CDF arrays from
// the merged masses, and E[Ratio] as the reference evaluator's one-group
// EMinRatio. It is the reference Prepare must match to the bit.
func prepareRef(gp GroupPlan) *PreparedGroup {
	d := gp.Group.Dist(gp.Bid)
	pg := &PreparedGroup{GP: gp, complete: d.Complete()}

	eSpot := 0.0
	for t := 0; t <= gp.Group.T; t++ {
		eSpot += d.P[t] * gp.SpotTime(t)
	}
	pg.costSpot = gp.Group.ExpectedPrice(gp.Bid) * eSpot * float64(gp.Group.M)

	var ratioProbs, timeProbs []float64
	pg.ratioVals, ratioProbs = sortedDistRef(gp.Group.T, d, gp.Ratio)
	pg.ratioTail = make([]float64, len(pg.ratioVals)+1)
	pg.ratioTail[0] = 1
	for j, p := range ratioProbs {
		pg.ratioTail[j+1] = pg.ratioTail[j] - p
		if pg.ratioTail[j+1] < 0 {
			pg.ratioTail[j+1] = 0
		}
	}
	pg.timeVals, timeProbs = sortedDistRef(gp.Group.T, d, gp.SpotTime)
	pg.timeCDF = make([]float64, len(pg.timeVals)+1)
	for j, p := range timeProbs {
		pg.timeCDF[j+1] = pg.timeCDF[j] + p
	}
	pg.eRatio = EvaluatePrepared([]*PreparedGroup{pg}, OnDemand{}).EMinRatio
	return pg
}

// sortedDistRef maps the failure-time distribution through f and returns
// ascending distinct values with their merged probabilities.
func sortedDistRef(T int, d *failure.Dist, f func(int) float64) (vals, probs []float64) {
	type vp struct{ v, p float64 }
	tmp := make([]vp, 0, T+1)
	for t := 0; t <= T; t++ {
		if d.P[t] == 0 {
			continue
		}
		tmp = append(tmp, vp{f(t), d.P[t]})
	}
	for i := 1; i < len(tmp); i++ { // stable insertion sort
		for j := i; j > 0 && tmp[j].v < tmp[j-1].v; j-- {
			tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
		}
	}
	for _, e := range tmp {
		if n := len(vals); n > 0 && vals[n-1] == e.v {
			probs[n-1] += e.p
		} else {
			vals = append(vals, e.v)
			probs = append(probs, e.p)
		}
	}
	return vals, probs
}

// samePrepared reports the first field where got and want differ in any
// bit, or "" when they are identical.
func samePrepared(got, want *PreparedGroup) string {
	if got.GP != want.GP {
		return "GP"
	}
	fields := []struct {
		name      string
		got, want []float64
	}{
		{"costSpot", []float64{got.costSpot}, []float64{want.costSpot}},
		{"complete", []float64{got.complete}, []float64{want.complete}},
		{"eRatio", []float64{got.eRatio}, []float64{want.eRatio}},
		{"ratioVals", got.ratioVals, want.ratioVals},
		{"ratioTail", got.ratioTail, want.ratioTail},
		{"timeVals", got.timeVals, want.timeVals},
		{"timeCDF", got.timeCDF, want.timeCDF},
	}
	for _, f := range fields {
		if len(f.got) != len(f.want) {
			return f.name + " length"
		}
		for j := range f.got {
			if math.Float64bits(f.got[j]) != math.Float64bits(f.want[j]) {
				return f.name
			}
		}
	}
	return ""
}

func assertPreparedMatchesRef(t *testing.T, label string, gp GroupPlan) {
	t.Helper()
	got, want := Prepare(gp), prepareRef(gp)
	if field := samePrepared(got, want); field != "" {
		t.Fatalf("%s: Prepare's %s differs from the sorted reference:\nwalk %+v\nref  %+v", label, field, *got, *want)
	}
}

// plantedGroup is a hand-built group whose failure distribution at bid 1
// is p and whose expected price there is 0.5, planted in the cold cache
// so no history is needed.
func plantedGroup(T int, o, r float64, p []float64) *Group {
	g := &Group{M: 3, T: T, O: o, R: r}
	g.cold = newGroupCaches(1)
	g.cold.dist[1] = &failure.Dist{T: T, P: p}
	g.cold.price[1] = 0.5
	return g
}

// TestPrepareMatchesSortedReference pins the monotone walk to the
// sort-based derivation it replaced, to the bit, over 5 market seeds × 12
// shards × 8 presets × 4 residual fractions × 8 bid levels × 7 intervals.
func TestPrepareMatchesSortedReference(t *testing.T) {
	presets := []string{"BT", "SP", "LU", "FT", "IS", "BTIO", "LAMMPS-32", "LAMMPS-128"}
	const levels = 8
	cases := 0
	for _, seed := range []uint64{3, 8, 11, 2015, 4242} {
		m := testMarket(seed)
		for _, it := range cloud.DefaultCatalog() {
			for _, zone := range cloud.DefaultZones() {
				hist := m.Trace(it.Name, zone)
				bids := make([]float64, levels)
				for l := range bids {
					bids[l] = hist.Max() / math.Pow(2, float64(l))
				}
				// One sweep per (shard, bid), shared by every profile.
				type swept struct {
					p     *failure.Passage
					price float64
				}
				shared := map[float64]swept{}
				src := func(bid float64) (*failure.Passage, float64) {
					s, ok := shared[bid]
					if !ok {
						s = swept{failure.NewPassage(hist, bid), failure.ExpectedSpotPrice(hist, bid)}
						shared[bid] = s
					}
					return s.p, s.price
				}
				for _, name := range presets {
					p, _ := app.ByName(name)
					for _, frac := range []float64{1, 0.73, 0.31, 0.05} {
						g := NewGroup(p.Scale(frac), it, zone, hist)
						g.Prewarm(bids, src)
						T := float64(g.T)
						for _, bid := range bids {
							for _, interval := range []float64{0.5, 1, 2.5, 7.3, T / 3, T - 0.5, T} {
								assertPreparedMatchesRef(t, name, GroupPlan{Group: g, Bid: bid, Interval: interval})
								cases++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d prepared groups bit-identical to the sorted reference", cases)
}

// TestPrepareEdgeGroups pins the walk on hand-built groups at the edges
// of its monotonicity argument.
func TestPrepareEdgeGroups(t *testing.T) {
	const T = 12
	dense := make([]float64, T+1)
	for i := range dense {
		dense[i] = float64(i%5+1) / 37
	}
	holes := append([]float64(nil), dense...)
	for _, i := range []int{1, 4, 5, 9, T} {
		holes[i] = 0
	}
	for _, c := range []struct {
		name     string
		o, r     float64
		p        []float64
		interval float64
	}{
		{"no checkpoint overhead", 0, 0.3, dense, 2},
		{"recovery past T clamps Ratio at 1", 0.2, T + 3, dense, 1.5},
		{"recovery exactly T", 0.2, T, dense, 1},
		{"negative recovery clamps Ratio at 0", 0.2, -T, dense, 1},
		{"interval at T", 0.2, 0.3, dense, T},
		{"interval past T", 0.2, 0.3, dense, 2 * T},
		{"zero interval", 0.2, 0.3, dense, 0},
		{"negative interval", 0.2, 0.3, dense, -1},
		{"interior zeros", 0.2, 0.3, holes, 2.5},
		{"interval at the T/2^53 floor", 0.2, 0.3, dense, T / (1 << 53)},
		{"spot times collide", 1e17, 0.3, dense, 4},
		{"no mass at all", 0.2, 0.3, make([]float64, T+1), 2},
	} {
		g := plantedGroup(T, c.o, c.r, c.p)
		assertPreparedMatchesRef(t, c.name, GroupPlan{Group: g, Bid: 1, Interval: c.interval})
	}

	// The collision case must really merge spot times, and the clamped
	// case Ratio values, or the two cases prove nothing.
	collide := Prepare(GroupPlan{Group: plantedGroup(T, 1e17, 0.3, dense), Bid: 1, Interval: 4})
	if len(collide.timeVals) >= T+1 {
		t.Errorf("spot times at O = 1e17 kept %d distinct values, want adjacent ones merged", len(collide.timeVals))
	}
	clamped := Prepare(GroupPlan{Group: plantedGroup(T, 0.2, T+3, dense), Bid: 1, Interval: 1.5})
	if len(clamped.ratioVals) != 2 {
		t.Errorf("Ratio with R > T took values %v, want only 0 and 1", clamped.ratioVals)
	}
}

// TestPrepareAllocs pins Prepare to the PreparedGroup and one backing
// array for its four distribution slices.
func TestPrepareAllocs(t *testing.T) {
	g := NewGroup(app.BT(), cloud.C3XLarge, cloud.ZoneA, testMarket(2015).Trace(cloud.C3XLarge.Name, cloud.ZoneA))
	gp := GroupPlan{Group: g, Bid: g.MaxBid() / 4, Interval: 2.5}
	g.Prewarm([]float64{gp.Bid}, nil)
	if allocs := testing.AllocsPerRun(100, func() { Prepare(gp) }); allocs != 2 {
		t.Errorf("Prepare allocates %.1f objects, want 2", allocs)
	}
}

// TestValidateIntervalFloor pins the interval bound: below T/2^53 the
// checkpoint count ⌊t/F⌋ overflows an int and a plan prices to a
// negative cost, so Validate refuses it; at the bound and above, the
// plan prices non-negative.
func TestValidateIntervalFloor(t *testing.T) {
	g := NewGroup(app.BT(), cloud.C3XLarge, cloud.ZoneA, testMarket(2015).Trace(cloud.C3XLarge.Name, cloud.ZoneA))
	floor := float64(g.T) / (1 << 53)
	for _, c := range []struct {
		interval float64
		ok       bool
	}{
		{1e-20, false},
		{math.Nextafter(floor, 0), false},
		{math.NaN(), false},
		{0, false},
		{-2, false},
		{math.Inf(-1), false},
		{floor, true},
		{0.5, true},
		{float64(g.T), true},
		{math.Inf(1), true},
	} {
		p := planOf(GroupPlan{Group: g, Bid: g.MaxBid() / 4, Interval: c.interval})
		err := p.Validate()
		if (err == nil) != c.ok {
			t.Errorf("interval %v: Validate = %v, want ok %v", c.interval, err, c.ok)
			continue
		}
		if c.ok {
			if est := Evaluate(p); !(est.Cost >= 0) {
				t.Errorf("interval %v: admitted plan prices to %v", c.interval, est.Cost)
			}
		}
	}
}

// FuzzPrepare holds the walk to the sorted reference on arbitrary
// groups: T in [1, 256], O >= 0, any R but NaN, an interval Validate
// admits, and a non-negative failure distribution with arbitrary zeros.
func FuzzPrepare(f *testing.F) {
	f.Add(uint8(11), 0.2, 0.3, 2.5, []byte{3, 0, 7, 1, 1, 0, 9, 4, 4, 2, 8, 0})
	f.Add(uint8(5), 0.0, 9.0, 1.0, []byte{1, 1, 1, 1, 1, 1})
	f.Add(uint8(30), 1e17, 0.1, 1.0, []byte{200, 13, 0, 0, 77})
	f.Add(uint8(0), 0.5, -3.0, 0.0, []byte{})
	f.Fuzz(func(t *testing.T, tm1 uint8, o, r, interval float64, mass []byte) {
		T := int(tm1) + 1
		o = math.Abs(o)
		if math.IsNaN(o) || math.IsInf(o, 0) || math.IsNaN(r) {
			t.Skip()
		}
		if interval > 0 && !(interval >= float64(T)/(1<<53)) || math.IsNaN(interval) {
			t.Skip()
		}
		p := make([]float64, T+1)
		for i := range p {
			if i < len(mass) {
				p[i] = float64(mass[i]) / 97
			}
		}
		g := plantedGroup(T, o, r, p)
		assertPreparedMatchesRef(t, "fuzz", GroupPlan{Group: g, Bid: 1, Interval: interval})
	})
}
