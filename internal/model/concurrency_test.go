package model

import (
	"math"
	"sync"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/failure"
)

// TestGroupCachesConcurrent hammers one shared Group's per-bid caches
// from many goroutines, mixing cold lookups, warm lookups and a
// concurrent Prewarm. Run under -race this is the proof that the
// two-tier cache is sound; the value assertions prove every racer sees
// the same derived numbers.
func TestGroupCachesConcurrent(t *testing.T) {
	m := testMarket(5)
	g := NewGroup(app.BT(), cloud.M1Medium, cloud.ZoneA, m.Trace(cloud.M1Medium.Name, cloud.ZoneA))
	bids := []float64{0.02, 0.04, 0.08, 0.16, 0.32, 0.64}
	g.Prewarm(bids[:3], nil) // half warm, half cold

	// Reference values computed single-threaded on a cache-equivalent
	// twin group.
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
				g.Prewarm(bids, nil) // concurrent re-warm must not disturb readers
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
// per push, pop or leaf of a PrefixStack sized for the grid.
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
}

// TestPrewarmMatchesColdPath asserts warm and cold lookups derive the
// same quantities, bit for bit — whether the warm group sweeps its own
// history or takes its sweeps from a source a residual profile's group
// on the same history filled.
func TestPrewarmMatchesColdPath(t *testing.T) {
	m := testMarket(8)
	hist := m.Trace(cloud.C3XLarge.Name, cloud.ZoneB)
	cold := NewGroup(app.BT(), cloud.C3XLarge, cloud.ZoneB, hist)
	bids := []float64{0.1, 0.2, 0.4}
	warm := resetCache(cold)
	warm.Prewarm(bids, nil)
	// A session's residual profile: same history, a different horizon.
	other := NewGroup(app.BT().Scale(0.4), cloud.C3XLarge, cloud.ZoneB, hist)
	if other.T == cold.T {
		t.Fatalf("precondition: both groups have T = %d, the shared source proves nothing", cold.T)
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
	sourced := resetCache(cold)
	sourced.Prewarm(bids, src)
	for _, bid := range bids {
		for name, g := range map[string]*Group{"warm": warm, "sourced": sourced} {
			if a, b := cold.ExpectedPrice(bid), g.ExpectedPrice(bid); a != b {
				t.Errorf("ExpectedPrice(%v): cold %v %s %v", bid, a, name, b)
			}
			if a, b := cold.MTTF(bid), g.MTTF(bid); math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("MTTF(%v): cold %v %s %v", bid, a, name, b)
			}
			a, b := cold.Dist(bid), g.Dist(bid)
			if a.T != b.T || len(a.P) != len(b.P) {
				t.Fatalf("Dist(%v): cold T %d, %s T %d", bid, a.T, name, b.T)
			}
			for i := range a.P {
				if math.Float64bits(a.P[i]) != math.Float64bits(b.P[i]) {
					t.Errorf("Dist(%v).P[%d]: cold %v %s %v", bid, i, a.P[i], name, b.P[i])
				}
			}
		}
	}
}
