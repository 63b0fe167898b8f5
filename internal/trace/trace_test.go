package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sompi/internal/stats"
)

func linear(n int) *Trace {
	p := make([]float64, n)
	for i := range p {
		p[i] = float64(i)
	}
	return New(1.0, p)
}

func TestNewPanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with step 0 did not panic")
		}
	}()
	New(0, nil)
}

func TestDuration(t *testing.T) {
	tr := New(0.5, make([]float64, 10))
	if tr.Duration() != 5 {
		t.Fatalf("Duration = %v, want 5", tr.Duration())
	}
}

func TestAtAndIndexClamping(t *testing.T) {
	tr := linear(10)
	if tr.At(-3) != 0 {
		t.Fatalf("At(-3) = %v, want 0", tr.At(-3))
	}
	if tr.At(100) != 9 {
		t.Fatalf("At(100) = %v, want 9", tr.At(100))
	}
	if tr.At(3.5) != 3 {
		t.Fatalf("At(3.5) = %v, want 3", tr.At(3.5))
	}
}

func TestWindow(t *testing.T) {
	tr := linear(24)
	w := tr.Window(6, 6)
	if w.Len() != 6 {
		t.Fatalf("window len = %d, want 6", w.Len())
	}
	if w.Prices[0] != 6 {
		t.Fatalf("window start = %v, want 6", w.Prices[0])
	}
}

func TestWindowClamps(t *testing.T) {
	tr := linear(10)
	if w := tr.Window(-5, 100); w.Len() != 10 {
		t.Fatalf("over-wide window len = %d, want 10", w.Len())
	}
	if w := tr.Window(50, 10); w.Len() != 0 {
		t.Fatalf("out-of-range window len = %d, want 0", w.Len())
	}
}

func TestMaxMean(t *testing.T) {
	tr := New(1, []float64{1, 2, 3, 10})
	if tr.Max() != 10 {
		t.Fatalf("Max = %v, want 10", tr.Max())
	}
	if tr.Mean() != 4 {
		t.Fatalf("Mean = %v, want 4", tr.Mean())
	}
}

func TestMeanBelow(t *testing.T) {
	tr := New(1, []float64{1, 2, 3, 10})
	if got := tr.MeanBelow(3); got != 2 {
		t.Fatalf("MeanBelow(3) = %v, want 2", got)
	}
	// No sample below the bid: fall back to the bid itself.
	if got := tr.MeanBelow(0.5); got != 0.5 {
		t.Fatalf("MeanBelow(0.5) = %v, want 0.5", got)
	}
}

func TestFractionBelow(t *testing.T) {
	tr := New(1, []float64{1, 2, 3, 4})
	if got := tr.FractionBelow(2); got != 0.5 {
		t.Fatalf("FractionBelow(2) = %v, want 0.5", got)
	}
}

func TestClone(t *testing.T) {
	a := New(1, []float64{1, 2})
	b := a.Clone()
	b.Prices[0] = 99
	if a.Prices[0] != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := New(0.25, []float64{0.1, 0.2, 0.15, 3.5})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip len %d, want %d", back.Len(), tr.Len())
	}
	if math.Abs(back.Step-tr.Step) > 1e-9 {
		t.Fatalf("round trip step %v, want %v", back.Step, tr.Step)
	}
	for i := range tr.Prices {
		if math.Abs(back.Prices[i]-tr.Prices[i]) > 1e-6 {
			t.Fatalf("sample %d: %v != %v", i, back.Prices[i], tr.Prices[i])
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"hour,price\n",
		"hour,price\nabc,1\n",
		"hour,price\n0,xyz\n",
		"hour,price\n0,-1\n",
		"hour,price\n0,1\n0,2\n",
		"hour,price\n1,1\n0,2\n",
	} {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Fatalf("ReadCSV accepted %q", in)
		}
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	tr, err := ReadCSV(strings.NewReader("0,0.5\n1,0.6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.Step != 1 {
		t.Fatalf("got len=%d step=%v", tr.Len(), tr.Step)
	}
}

func quietModel() Model {
	return Model{
		Name: "test/quiet", Base: 0.05, Jitter: 0.02, CalmHoldHours: 4,
		VolatileRate: 0, SpikeCap: 1, Floor: 0.001,
	}
}

func volatileModel() Model {
	return Model{
		Name: "test/volatile", Base: 0.05, Jitter: 0.05, CalmHoldHours: 4,
		VolatileRate: 1.0 / 12, VolatileMeanHours: 2,
		SpikeMu: 2.0, SpikeSigma: 1.0, SpikeCap: 5, Floor: 0.001,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := volatileModel().Generate(stats.NewRNG(1), 72)
	b := volatileModel().Generate(stats.NewRNG(1), 72)
	for i := range a.Prices {
		if a.Prices[i] != b.Prices[i] {
			t.Fatalf("generation is not deterministic at sample %d", i)
		}
	}
}

func TestGenerateLength(t *testing.T) {
	tr := quietModel().Generate(stats.NewRNG(2), 48)
	if got := tr.Duration(); math.Abs(got-48) > tr.Step {
		t.Fatalf("Duration = %v, want ~48", got)
	}
}

func TestGenerateBounds(t *testing.T) {
	m := volatileModel()
	tr := m.Generate(stats.NewRNG(3), 24*14)
	for i, p := range tr.Prices {
		if p < m.Floor || p > m.SpikeCap {
			t.Fatalf("sample %d = %v outside [%v,%v]", i, p, m.Floor, m.SpikeCap)
		}
	}
}

func TestQuietMarketStaysNearBase(t *testing.T) {
	m := quietModel()
	tr := m.Generate(stats.NewRNG(4), 24*7)
	if max := tr.Max(); max > m.Base*1.5 {
		t.Fatalf("quiet market spiked to %v (base %v)", max, m.Base)
	}
}

func TestVolatileMarketSpikes(t *testing.T) {
	m := volatileModel()
	tr := m.Generate(stats.NewRNG(5), 24*14)
	if max := tr.Max(); max < m.Base*5 {
		t.Fatalf("volatile market never spiked: max %v (base %v)", max, m.Base)
	}
}

func TestVolatileMarketMostlyCheap(t *testing.T) {
	// The paper's economics depend on the spot price sitting well below
	// on-demand most of the time even in volatile markets.
	m := volatileModel()
	tr := m.Generate(stats.NewRNG(6), 24*14)
	if frac := tr.FractionBelow(m.Base * 2); frac < 0.6 {
		t.Fatalf("only %v of samples below 2x base", frac)
	}
}

func TestGenerateHasPlateaus(t *testing.T) {
	// Section 2.1: "the spot price can be unchanged for some time".
	tr := quietModel().Generate(stats.NewRNG(7), 24*7)
	longest, run := 0, 1
	for i := 1; i < tr.Len(); i++ {
		if tr.Prices[i] == tr.Prices[i-1] {
			run++
		} else {
			run = 1
		}
		if run > longest {
			longest = run
		}
	}
	if plateau := float64(longest) * tr.Step; plateau < 1 {
		t.Fatalf("longest plateau only %v hours", plateau)
	}
}

func TestStableDailyDistribution(t *testing.T) {
	// Figure 2: consecutive-day histograms of the same market are close.
	m := volatileModel()
	tr := m.Generate(stats.NewRNG(8), 24*8)
	var prev *Trace
	for day := 0; day < 4; day++ {
		w := tr.Window(float64(day)*24, 24)
		if prev != nil {
			d := prev.Histogram(0, m.SpikeCap, 20).Distance(w.Histogram(0, m.SpikeCap, 20))
			if d > 1.2 { // L1 distance of densities is at most 2
				t.Fatalf("day %d distribution drifted: L1 distance %v", day, d)
			}
		}
		prev = w
	}
}

func TestMeanBelowNeverExceedsBidOrMax(t *testing.T) {
	f := func(seed uint64, bidRaw float64) bool {
		m := volatileModel()
		tr := m.Generate(stats.NewRNG(seed), 24)
		bid := math.Mod(math.Abs(bidRaw), m.SpikeCap) + m.Floor
		got := tr.MeanBelow(bid)
		return got <= bid+1e-12 && got >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
