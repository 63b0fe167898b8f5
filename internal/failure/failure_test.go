package failure

import (
	"math"
	"testing"
	"testing/quick"

	"sompi/internal/cloud"
	"sompi/internal/stats"
	"sompi/internal/trace"
)

// flat returns a constant-price trace at 1-hour steps.
func flat(price float64, hours int) *trace.Trace {
	p := make([]float64, hours)
	for i := range p {
		p[i] = price
	}
	return trace.New(1, p)
}

func marketTrace(seed uint64) *trace.Trace {
	m := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), 24*14, seed)
	return m.Trace(cloud.M1Medium.Name, cloud.ZoneA)
}

func TestDistSumsToOne(t *testing.T) {
	d := Estimate(marketTrace(1), 0.05, 30)
	sum := 0.0
	for _, p := range d.P {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("distribution sums to %v", sum)
	}
}

func TestHighBidNeverFails(t *testing.T) {
	tr := marketTrace(2)
	d := Estimate(tr, tr.Max()+1, 30)
	if d.Complete() != 1 {
		t.Fatalf("bid above max: completion prob %v, want 1", d.Complete())
	}
}

func TestZeroBidAlwaysFailsImmediately(t *testing.T) {
	tr := marketTrace(3)
	d := Estimate(tr, 0, 30)
	if d.Fail(0) != 1 {
		t.Fatalf("zero bid: P(fail hour 0) = %v, want 1", d.Fail(0))
	}
}

func TestFlatTraceBidAboveSurvives(t *testing.T) {
	d := Estimate(flat(0.1, 48), 0.2, 24)
	if d.Complete() != 1 {
		t.Fatalf("flat trace below bid: completion %v, want 1", d.Complete())
	}
}

func TestKnownSpikeDistribution(t *testing.T) {
	// Price exceeds the bid only at sample 5 (hour 5). From start s <= 5
	// the first passage is 5-s hours; from s > 5 it wraps around to
	// 5 + 10 - s hours. Horizon 4 means only starts 2..5 (passage <= 3)
	// and 7..10 fail within the horizon... verify a couple of buckets.
	p := []float64{1, 1, 1, 1, 1, 9, 1, 1, 1, 1}
	tr := trace.New(1, p)
	d := Estimate(tr, 5, 4)
	// Starts with passage 0 hours: s=5 only -> 1/10.
	if math.Abs(d.Fail(0)-0.1) > 1e-12 {
		t.Fatalf("P(fail 0) = %v, want 0.1", d.Fail(0))
	}
	// Passage 1 hour: s=4 -> 1/10.
	if math.Abs(d.Fail(1)-0.1) > 1e-12 {
		t.Fatalf("P(fail 1) = %v, want 0.1", d.Fail(1))
	}
	// Completion: starts whose passage >= 4: s in {6,7,8,9,0,1} -> 6/10.
	if math.Abs(d.Complete()-0.6) > 1e-12 {
		t.Fatalf("P(complete) = %v, want 0.6", d.Complete())
	}
}

func TestSurvivalMonotone(t *testing.T) {
	d := Estimate(marketTrace(4), 0.04, 40)
	prev := 1.0
	for h := 0; h <= d.T; h++ {
		s := d.Survival(h)
		if s > prev+1e-12 {
			t.Fatalf("survival increased at %d: %v > %v", h, s, prev)
		}
		prev = s
	}
	if math.Abs(d.Survival(0)-1) > 1e-12 {
		t.Fatalf("Survival(0) = %v, want 1", d.Survival(0))
	}
}

func TestCompletionMonotoneInBid(t *testing.T) {
	// Higher bids can only improve survival.
	tr := marketTrace(5)
	prev := -1.0
	for _, bid := range []float64{0.01, 0.03, 0.05, 0.1, 0.5, 1.0} {
		c := Estimate(tr, bid, 30).Complete()
		if c < prev-1e-12 {
			t.Fatalf("completion prob decreased at bid %v: %v < %v", bid, c, prev)
		}
		prev = c
	}
}

func TestEstimateMCConvergesToExhaustive(t *testing.T) {
	tr := marketTrace(6)
	exact := Estimate(tr, 0.05, 20)
	mc := EstimateMC(tr, 0.05, 20, 200000, stats.NewRNG(7))
	for i := range exact.P {
		if math.Abs(exact.P[i]-mc.P[i]) > 0.01 {
			t.Fatalf("bucket %d: MC %v vs exact %v", i, mc.P[i], exact.P[i])
		}
	}
}

func TestRelativeErrorSelfZero(t *testing.T) {
	d := Estimate(marketTrace(8), 0.05, 20)
	if e := RelativeError(d, d); e != 0 {
		t.Fatalf("self relative error = %v", e)
	}
}

func TestRelativeErrorHorizonMismatchPanics(t *testing.T) {
	a := Estimate(flat(0.1, 10), 0.2, 5)
	b := Estimate(flat(0.1, 10), 0.2, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("horizon mismatch did not panic")
		}
	}()
	RelativeError(a, b)
}

func TestMTTFInfiniteAboveMax(t *testing.T) {
	tr := marketTrace(9)
	if m := MTTF(tr, tr.Max()); !math.IsInf(m, 1) {
		t.Fatalf("MTTF at max bid = %v, want +Inf", m)
	}
}

func TestMTTFZeroBid(t *testing.T) {
	tr := marketTrace(10)
	if m := MTTF(tr, 0); m != 0 {
		t.Fatalf("MTTF at zero bid = %v, want 0", m)
	}
}

func TestMTTFMonotoneInBid(t *testing.T) {
	tr := marketTrace(11)
	prev := -1.0
	for _, bid := range []float64{0.01, 0.02, 0.04, 0.08, 0.2, 0.5} {
		m := MTTF(tr, bid)
		if m < prev-1e-9 {
			t.Fatalf("MTTF decreased at bid %v: %v < %v", bid, m, prev)
		}
		prev = m
	}
}

func TestMTTFKnownValue(t *testing.T) {
	// Spike at sample 3 of 4 (hour 3): passages from s=0..3 are 3,2,1,0;
	// wrap start s=3 is the spike itself (0). Mean = (3+2+1+0)/4 = 1.5.
	tr := trace.New(1, []float64{1, 1, 1, 9})
	if m := MTTF(tr, 5); math.Abs(m-1.5) > 1e-12 {
		t.Fatalf("MTTF = %v, want 1.5", m)
	}
}

func TestExpectedSpotPriceBelowBid(t *testing.T) {
	tr := marketTrace(12)
	f := func(raw float64) bool {
		bid := math.Mod(math.Abs(raw), tr.Max()) + 0.001
		s := ExpectedSpotPrice(tr, bid)
		return s > 0 && s <= bid+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedSpotPriceMonotone(t *testing.T) {
	// Raising the bid admits dearer samples, so S(P) is non-decreasing.
	tr := marketTrace(13)
	prev := 0.0
	for _, bid := range []float64{0.01, 0.02, 0.05, 0.1, 0.3, 1.0} {
		s := ExpectedSpotPrice(tr, bid)
		if s < prev-1e-12 {
			t.Fatalf("S(P) decreased at %v: %v < %v", bid, s, prev)
		}
		prev = s
	}
}

func TestEstimatePanics(t *testing.T) {
	empty := trace.New(1, nil)
	cases := []func(){
		func() { Estimate(empty, 1, 5) },
		func() { Estimate(flat(1, 5), 1, 0) },
		func() { EstimateMC(flat(1, 5), 1, 5, 0, stats.NewRNG(1)) },
		func() { MTTF(empty, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestFigure4Shape reproduces the qualitative content of Figure 4: as the
// bid price rises, the failure probability at a fixed horizon falls and
// the expected spot price rises, both changing fastest at low bids.
func TestFigure4Shape(t *testing.T) {
	tr := marketTrace(14)
	lowFail := 1 - Estimate(tr, tr.Mean()*0.5, 24).Complete()
	highFail := 1 - Estimate(tr, tr.Max()*0.9, 24).Complete()
	if lowFail <= highFail {
		t.Fatalf("failure prob not decreasing in bid: low %v, high %v", lowFail, highFail)
	}
	if ExpectedSpotPrice(tr, tr.Mean()*0.5) >= ExpectedSpotPrice(tr, tr.Max()) {
		t.Fatal("expected spot price not increasing in bid")
	}
}

// TestExceedStepsMatchesScan pins the O(n) first-passage sweep against
// the original per-start cyclic scan it replaced, on a real synthesized
// trace across the bid range (below min, interior, at/above max).
func TestExceedStepsMatchesScan(t *testing.T) {
	tr := marketTrace(5)
	horizon := tr.Duration() * 2
	steps := int(math.Ceil(horizon / tr.Step))
	bids := []float64{0, tr.Mean() * 0.5, tr.Mean(), tr.Max() * 0.99, tr.Max(), tr.Max() * 2}
	for _, bid := range bids {
		dist, _ := exceedSteps(tr, bid)
		for s := 0; s < tr.Len(); s += 7 {
			wantH, wantEx := firstExceedCyclic(tr, s, bid, horizon)
			gotEx := dist[s] >= 0 && int(dist[s]) < steps
			gotH := horizon
			if gotEx {
				gotH = float64(dist[s]) * tr.Step
			}
			if gotEx != wantEx || gotH != wantH {
				t.Fatalf("bid %v start %d: sweep (%v,%v) != scan (%v,%v)",
					bid, s, gotH, gotEx, wantH, wantEx)
			}
		}
	}
}

// parentDist and parentMTTF are the per-start derivations Passage
// replaced, copied verbatim so the pin below does not move with the
// package: every start's distance recorded one at a time, and the MTTF
// summed in sample order.
func parentDist(tr *trace.Trace, exceed []int, horizon int) *Dist {
	d := &Dist{T: horizon, P: make([]float64, horizon+1)}
	steps := int(math.Ceil(float64(horizon) / tr.Step))
	for _, ds := range exceed {
		if ds >= 0 && ds < steps {
			d.record(float64(ds)*tr.Step, true)
		} else {
			d.record(float64(horizon), false)
		}
	}
	d.normalize(float64(tr.Len()))
	return d
}

func parentMTTF(tr *trace.Trace, exceed []int) float64 {
	horizon := tr.Duration() * 2
	steps := int(math.Ceil(horizon / tr.Step))
	sum := 0.0
	censored := false
	for _, ds := range exceed {
		if ds >= 0 && ds < steps {
			sum += float64(ds) * tr.Step
		} else {
			censored = true
			sum += horizon
		}
	}
	if censored {
		return math.Inf(1)
	}
	return sum / float64(tr.Len())
}

// TestPassageMatchesParentSweep pins Passage.Dist and Passage.MTTF, bit
// for bit, to the per-start derivation they replaced: 24 h and 96 h
// windows of every shard of a generated market (heads past zero, as a
// served training window has), eight grid bid levels from the window's
// maximum down, and ten horizons from 1 to 300 hours — 1,920
// distributions. Estimate and MTTF, which now go through Passage, are
// held to the same reference.
func TestPassageMatchesParentSweep(t *testing.T) {
	m := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), 240, 7)
	horizons := []int{1, 2, 5, 12, 24, 47, 96, 150, 240, 300}
	checks := 0
	for _, win := range []float64{24, 96} {
		view := m.Window(240-win, win)
		for _, key := range m.Keys() {
			tr, _ := view.TraceFor(key)
			for l := 0; l < 8; l++ {
				bid := tr.Max() / math.Pow(2, float64(l))
				var exceed []int
				dist, _ := exceedSteps(tr, bid)
				for _, ds := range dist {
					exceed = append(exceed, int(ds))
				}
				p := NewPassage(tr, bid)
				wantMTTF := parentMTTF(tr, exceed)
				if math.Float64bits(p.MTTF()) != math.Float64bits(wantMTTF) {
					t.Fatalf("%v %vh bid %v: MTTF %v, parent %v", key, win, bid, p.MTTF(), wantMTTF)
				}
				if got := MTTF(tr, bid); math.Float64bits(got) != math.Float64bits(wantMTTF) {
					t.Fatalf("%v %vh bid %v: MTTF() %v, parent %v", key, win, bid, got, wantMTTF)
				}
				for _, h := range horizons {
					want := parentDist(tr, exceed, h)
					for _, got := range []*Dist{p.Dist(h), Estimate(tr, bid, h)} {
						if got.T != want.T || len(got.P) != len(want.P) {
							t.Fatalf("%v %vh bid %v T %d: shape %d/%d, parent %d/%d", key, win, bid, h, got.T, len(got.P), want.T, len(want.P))
						}
						for i := range want.P {
							if math.Float64bits(got.P[i]) != math.Float64bits(want.P[i]) {
								t.Fatalf("%v %vh bid %v T %d: P[%d] = %v, parent %v", key, win, bid, h, i, got.P[i], want.P[i])
							}
						}
					}
					checks++
				}
			}
		}
	}
	if checks != 1920 {
		t.Fatalf("identity sweep ran %d checks, want 1920", checks)
	}
}
