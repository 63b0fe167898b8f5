package model

import (
	"math"
	"sync"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/failure"
)

// TestGroupCachesConcurrent hammers one shared Group's per-bid cache
// from many goroutines, mixing on-demand lookups, prewarmed lookups and a
// concurrent Prewarm. Run under -race this is the proof that the
// mutex-held table is sound; the value assertions prove every racer sees
// the same derived numbers.
func TestGroupCachesConcurrent(t *testing.T) {
	m := testMarket(5)
	g := NewGroup(app.BT(), cloud.M1Medium, cloud.ZoneA, m.Trace(cloud.M1Medium.Name, cloud.ZoneA))
	bids := []float64{0.02, 0.04, 0.08, 0.16, 0.32, 0.64}
	g.Prewarm(bids[:3], nil) // half prewarmed, half filled on demand

	// Reference values computed single-threaded on a fresh twin group.
	ref := resetCache(g)
	wantPrice := make([]float64, len(bids))
	wantMTTF := make([]float64, len(bids))
	wantComplete := make([]float64, len(bids))
	for i, bid := range bids {
		wantPrice[i] = ref.ExpectedPrice(bid)
		wantMTTF[i] = ref.MTTF(bid)
		wantComplete[i] = ref.Dist(bid).Complete()
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w == 0 {
				g.Prewarm(bids, nil) // a concurrent Prewarm must not disturb readers
			}
			for rep := 0; rep < 20; rep++ {
				for i, bid := range bids {
					if got := g.ExpectedPrice(bid); got != wantPrice[i] {
						errs <- "ExpectedPrice diverged"
						return
					}
					if got := g.MTTF(bid); got != wantMTTF[i] {
						errs <- "MTTF diverged"
						return
					}
					if got := g.Dist(bid).Complete(); got != wantComplete[i] {
						errs <- "Dist diverged"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestEvaluatorMatchesPackageFunction asserts the scratch-reusing
// Evaluator returns exactly what the allocating package function does,
// across repeated calls with different plan widths (the reuse pattern of
// the optimizer's workers).
func TestEvaluatorMatchesPackageFunction(t *testing.T) {
	m := testMarket(6)
	od := defaultRecovery()
	var pgs []*PreparedGroup
	for _, zone := range cloud.DefaultZones() {
		g := NewGroup(app.BT(), cloud.M1Medium, zone, m.Trace(cloud.M1Medium.Name, zone))
		pgs = append(pgs, Prepare(GroupPlan{Group: g, Bid: 0.05, Interval: 3}))
	}
	var ev Evaluator
	for n := len(pgs); n >= 0; n-- { // shrinking widths stress scratch reslicing
		want := EvaluatePrepared(pgs[:n], od)
		got := ev.EvaluatePrepared(pgs[:n], od)
		if got != want {
			t.Errorf("width %d: Evaluator %+v != package %+v", n, got, want)
		}
		if again := ev.EvaluatePrepared(pgs[:n], od); again != want {
			t.Errorf("width %d: second reuse diverged", n)
		}
	}
}

// TestEvaluatorAllocationFree verifies the optimizer's inner loop does
// not allocate per evaluation once the Evaluator's scratch has grown, nor
// per push, pop or leaf of a PrefixStack sized for the grid, whether a
// leaf walks a level in full or leaves it half merged for the next.
func TestEvaluatorAllocationFree(t *testing.T) {
	m := testMarket(7)
	od := defaultRecovery()
	var pgs []*PreparedGroup
	for _, zone := range cloud.DefaultZones() {
		g := NewGroup(app.BT(), cloud.M1Medium, zone, m.Trace(cloud.M1Medium.Name, zone))
		pgs = append(pgs, Prepare(GroupPlan{Group: g, Bid: 0.05, Interval: 3}))
	}
	var ev Evaluator
	ev.EvaluatePrepared(pgs, od) // grow scratch
	allocs := testing.AllocsPerRun(100, func() {
		ev.EvaluatePrepared(pgs, od)
	})
	if allocs > 0 {
		t.Errorf("EvaluatePrepared allocates %.1f objects per call, want 0", allocs)
	}

	stack := NewPrefixStack([][]*PreparedGroup{pgs}, len(pgs)-1)
	last := pgs[len(pgs)-1]
	allocs = testing.AllocsPerRun(100, func() {
		for _, pg := range pgs[:len(pgs)-1] {
			stack.Push(pg)
		}
		stack.LeafCost(last, od.T, od.Rate(), math.Inf(1))
		for range pgs[:len(pgs)-1] {
			stack.Pop()
		}
	})
	if allocs > 0 {
		t.Errorf("PrefixStack push/leaf/pop allocates %.1f objects per descent, want 0", allocs)
	}

	// A leaf cut just past the spot-cost sum leaves the level it read half
	// merged; the next leaf under the same prefix walks it in full, and a
	// pop and push hand the level to another group.
	spot := pgs[0].CostSpot() + pgs[1].CostSpot() + last.CostSpot()
	top := func() *ratioStep { return &stack.steps[len(stack.steps)-1] }
	allocs = testing.AllocsPerRun(100, func() {
		stack.Push(pgs[0])
		stack.Push(pgs[1])
		if _, within := stack.LeafCost(last, od.T, od.Rate(), spot); within || top().done || top().n == 0 {
			t.Fatalf("cut leaf: within %v, level done %v with %d points", within, top().done, top().n)
		}
		if _, within := stack.LeafCost(last, od.T, od.Rate(), math.Inf(1)); !within || !top().done {
			t.Fatalf("full leaf: within %v, level done %v", within, top().done)
		}
		stack.Pop()
		stack.Push(last)
		stack.LeafCost(pgs[1], od.T, od.Rate(), spot)
		stack.Pop()
		stack.Pop()
	})
	if allocs > 0 {
		t.Errorf("PrefixStack half-merged descent allocates %.1f objects, want 0", allocs)
	}
}

// TestPrewarmMatchesColdPath is the per-bid cache's reference test: a
// group that sweeps its own history in Prewarm, one fed by a shared
// PassageSource and one filled by lookups alone must each give exactly
// failure.Estimate, failure.MTTF and failure.ExpectedSpotPrice, bit for
// bit, at interior bids, at the history max and above it.
func TestPrewarmMatchesColdPath(t *testing.T) {
	m := testMarket(8)
	hist := m.Trace(cloud.C3XLarge.Name, cloud.ZoneB)
	base := NewGroup(app.BT(), cloud.C3XLarge, cloud.ZoneB, hist)
	bids := []float64{0.1, 0.2, 0.4, hist.Max() / 3, hist.Max(), 2 * hist.Max()}

	own := resetCache(base)
	own.Prewarm(bids, nil)
	// A session's residual profile: same history, a different horizon,
	// fills the shared source first.
	other := NewGroup(app.BT().Scale(0.4), cloud.C3XLarge, cloud.ZoneB, hist)
	if other.T == base.T {
		t.Fatalf("precondition: both groups have T = %d, the shared source proves nothing", base.T)
	}
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
	other.Prewarm(bids, src)
	sourced := resetCache(base)
	sourced.Prewarm(bids, src)
	onDemand := resetCache(base)

	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, bid := range bids {
		wantDist := failure.Estimate(hist, bid, base.T)
		wantMTTF := failure.MTTF(hist, bid)
		wantPrice := failure.ExpectedSpotPrice(hist, bid)
		for _, c := range []struct {
			name string
			g    *Group
		}{{"own-sweep Prewarm", own}, {"sourced Prewarm", sourced}, {"on-demand lookup", onDemand}} {
			if got := c.g.ExpectedPrice(bid); !same(got, wantPrice) {
				t.Errorf("%s: ExpectedPrice(%v) = %v, failure.ExpectedSpotPrice %v", c.name, bid, got, wantPrice)
			}
			if got := c.g.MTTF(bid); !same(got, wantMTTF) {
				t.Errorf("%s: MTTF(%v) = %v, failure.MTTF %v", c.name, bid, got, wantMTTF)
			}
			got := c.g.Dist(bid)
			if got.T != wantDist.T || len(got.P) != len(wantDist.P) {
				t.Fatalf("%s: Dist(%v) has T %d, failure.Estimate T %d", c.name, bid, got.T, wantDist.T)
			}
			for i := range got.P {
				if !same(got.P[i], wantDist.P[i]) {
					t.Errorf("%s: Dist(%v).P[%d] = %v, failure.Estimate %v", c.name, bid, i, got.P[i], wantDist.P[i])
				}
			}
		}
	}
}
