package cloud

import (
	"math"
	"testing"

	"sompi/internal/trace"
)

func TestInstancesFor(t *testing.T) {
	cases := []struct {
		it    InstanceType
		procs int
		want  int
	}{
		{M1Small, 128, 128},
		{M1Medium, 128, 128},
		{C3XLarge, 128, 32},
		{CC28XLarge, 128, 4},
		{CC28XLarge, 33, 2},
		{CC28XLarge, 32, 1},
		{C3XLarge, 1, 1},
	}
	for _, c := range cases {
		if got := c.it.InstancesFor(c.procs); got != c.want {
			t.Errorf("%s.InstancesFor(%d) = %d, want %d", c.it.Name, c.procs, got, c.want)
		}
	}
}

func TestInstancesForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("InstancesFor(0) did not panic")
		}
	}()
	M1Small.InstancesFor(0)
}

func TestCatalogByName(t *testing.T) {
	cat := DefaultCatalog()
	it, ok := cat.ByName("c3.xlarge")
	if !ok || it.Cores != 4 {
		t.Fatalf("ByName(c3.xlarge) = %+v, %v", it, ok)
	}
	if _, ok := cat.ByName("nope"); ok {
		t.Fatal("ByName found a nonexistent type")
	}
}

func TestDefaultCatalogSane(t *testing.T) {
	for _, it := range DefaultCatalog() {
		if it.Cores <= 0 || it.GIPS <= 0 || it.NetGbps <= 0 ||
			it.IOSeqMBps <= 0 || it.IORndMBps <= 0 || it.OnDemand <= 0 {
			t.Errorf("type %s has a non-positive capability: %+v", it.Name, it)
		}
	}
}

func TestCatalogPriceOrdering(t *testing.T) {
	// The paper's trade-off space requires small-cheap to big-expensive.
	if !(M1Small.OnDemand < M1Medium.OnDemand &&
		M1Medium.OnDemand < C3XLarge.OnDemand &&
		C3XLarge.OnDemand < CC28XLarge.OnDemand) {
		t.Fatal("on-demand prices are not increasing with capability")
	}
}

func TestGenerateMarketDeterministic(t *testing.T) {
	a := GenerateMarket(DefaultCatalog(), DefaultZones(), 48, 9)
	b := GenerateMarket(DefaultCatalog(), DefaultZones(), 48, 9)
	for _, k := range a.Keys() {
		tr, other := a.Trace(k.Type, k.Zone), b.Trace(k.Type, k.Zone)
		for i := range tr.Prices {
			if tr.Prices[i] != other.Prices[i] {
				t.Fatalf("market %v diverges at sample %d", k, i)
			}
		}
	}
}

func TestGenerateMarketCoverage(t *testing.T) {
	m := GenerateMarket(DefaultCatalog(), DefaultZones(), 24, 1)
	want := len(DefaultCatalog()) * len(DefaultZones())
	if m.NumMarkets() != want {
		t.Fatalf("market has %d traces, want %d", m.NumMarkets(), want)
	}
	for _, k := range m.Keys() {
		if m.Trace(k.Type, k.Zone).Len() == 0 {
			t.Fatalf("market %v is empty", k)
		}
	}
}

func TestMarketKeysDeterministicOrder(t *testing.T) {
	m := GenerateMarket(DefaultCatalog(), DefaultZones(), 4, 1)
	a, b := m.Keys(), m.Keys()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Keys order is unstable")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Type > a[i].Type {
			t.Fatal("Keys not sorted by type")
		}
	}
}

func TestMarketTracePanicsOnUnknown(t *testing.T) {
	m := GenerateMarket(DefaultCatalog(), DefaultZones(), 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Trace for unknown market did not panic")
		}
	}()
	m.Trace("t2.nano", ZoneA)
}

func TestZoneBQuieterThanZoneA(t *testing.T) {
	// Figure 1: us-east-1b m1.medium is far calmer than us-east-1a, but
	// no zone is risk-free (see zoneProfiles).
	m := GenerateMarket(DefaultCatalog(), DefaultZones(), 24*28, 2)
	quiet := m.Trace(M1Medium.Name, ZoneB)
	noisy := m.Trace(M1Medium.Name, ZoneA)
	od := M1Medium.OnDemand
	if qa, na := 1-quiet.FractionBelow(od), 1-noisy.FractionBelow(od); qa >= na {
		t.Fatalf("zone B above on-demand %.3f of the time, zone A %.3f — B should be calmer", qa, na)
	}
	if noisy.Max() < od*2 {
		t.Fatalf("zone A never spiked: max %v", noisy.Max())
	}
	if quiet.Max() <= od*0.5 {
		t.Fatalf("zone B appears risk-free: max %v", quiet.Max())
	}
}

func TestSpotCheaperThanOnDemandMostly(t *testing.T) {
	m := GenerateMarket(DefaultCatalog(), DefaultZones(), 24*14, 3)
	for _, k := range m.Keys() {
		it, _ := m.Catalog().ByName(k.Type)
		if frac := m.Trace(k.Type, k.Zone).FractionBelow(it.OnDemand); frac < 0.6 {
			t.Errorf("market %v below on-demand only %.0f%% of the time", k, frac*100)
		}
	}
}

func TestMarketWindow(t *testing.T) {
	m := GenerateMarket(DefaultCatalog(), DefaultZones(), 48, 4)
	w := m.Window(12, 12)
	for _, k := range w.Keys() {
		if d := w.Trace(k.Type, k.Zone).Duration(); math.Abs(d-12) > 2*trace.DefaultStep {
			t.Fatalf("window duration %v, want ~12", d)
		}
	}
}
