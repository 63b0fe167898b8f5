package strategy_test

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/obs"
	"sompi/internal/opt"
	"sompi/internal/strategy"
)

const (
	testHours = 200
	testSeed  = 7
)

func testView(t *testing.T) cloud.MarketView {
	t.Helper()
	m := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), testHours, testSeed)
	return m.Window(0, strategy.DefaultHistory)
}

func testDeadline(profile app.Profile, factor float64) strategy.Deadline {
	return strategy.Deadline{Hours: opt.FastestOnDemand(nil, profile).T * factor}
}

var smallKnobs = map[string]float64{"kappa": 2, "grid_levels": 3, "max_groups": 3}

func TestRegistry(t *testing.T) {
	names := strategy.Names()
	if len(names) < 4 {
		t.Fatalf("only %d strategies registered: %v", len(names), names)
	}
	if names[0] != strategy.DefaultName {
		t.Fatalf("Names()[0] = %q, want %q", names[0], strategy.DefaultName)
	}
	for _, want := range []string{"sompi", "portfolio", "noft", "adaptive-ckpt"} {
		if _, ok := strategy.Lookup(want); !ok {
			t.Fatalf("strategy %q not registered (have %v)", want, names)
		}
	}
	// Empty name resolves to the default.
	d, ok := strategy.Lookup("")
	if !ok || d.Name != strategy.DefaultName {
		t.Fatalf(`Lookup("") = %+v, %v`, d, ok)
	}
	// Descriptors and built strategies agree on the name.
	for _, d := range strategy.List() {
		st, err := strategy.New(d.Name, nil)
		if err != nil {
			t.Fatalf("New(%q): %v", d.Name, err)
		}
		if st.Name() != d.Name {
			t.Fatalf("New(%q).Name() = %q", d.Name, st.Name())
		}
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := strategy.New("no-such-strategy", nil); !errors.Is(err, strategy.ErrUnknownStrategy) {
		t.Fatalf("unknown name: %v, want ErrUnknownStrategy", err)
	}
	cases := []struct {
		name   string
		params map[string]float64
	}{
		{"sompi", map[string]float64{"bogus": 1}},                 // unknown key
		{"sompi", map[string]float64{"kappa": 99}},                // out of range
		{"sompi", map[string]float64{"kappa": 1.5}},               // non-integer int
		{"portfolio", map[string]float64{"contracts": 0}},         // below min
		{"portfolio", map[string]float64{"high_quantile": 1.5}},   // above max
		{"noft", map[string]float64{"replicas": 2.5}},             // non-integer int
		{"adaptive-ckpt", map[string]float64{"levels": -1}},       // below min
		{"adaptive-ckpt", map[string]float64{"interval_mult": 1}}, // unknown key
	}
	for _, c := range cases {
		if _, err := strategy.New(c.name, c.params); !errors.Is(err, opt.ErrInvalidConfig) {
			t.Errorf("New(%q, %v): err = %v, want ErrInvalidConfig", c.name, c.params, err)
		}
	}
	// low_quantile above high_quantile is a constructor-level rejection.
	if _, err := strategy.New("portfolio", map[string]float64{"low_quantile": 0.9, "high_quantile": 0.7}); err == nil {
		t.Errorf("portfolio low>high accepted")
	}
}

// TestSOMPIMatchesOptimizer is the bit-identity contract: the wrapped
// strategy must produce exactly the plan OptimizeContext produces for the
// equivalent config.
func TestSOMPIMatchesOptimizer(t *testing.T) {
	view := testView(t)
	profile, _ := app.ByName("BT")
	d := testDeadline(profile, 2)

	st, err := strategy.New("sompi", smallKnobs)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := st.Plan(context.Background(), view, strategy.Workload{Profile: profile}, d)
	if err != nil {
		t.Fatalf("strategy plan: %v", err)
	}
	res, err := opt.OptimizeContext(context.Background(), opt.Config{
		Profile: profile, Market: view, Deadline: d.Hours,
		Kappa: 2, GridLevels: 3, MaxGroups: 3,
	})
	if err != nil {
		t.Fatalf("library plan: %v", err)
	}
	a, _ := json.Marshal(p.Model)
	b, _ := json.Marshal(res.Plan)
	if string(a) != string(b) {
		t.Fatalf("plans diverged:\n strategy: %s\n library:  %s", a, b)
	}
	if p.Est != res.Est {
		t.Fatalf("estimates diverged: %+v vs %+v", p.Est, res.Est)
	}
}

// TestStrategiesPlanValidDeterministic runs every registered strategy
// twice on the same inputs: plans must validate, meet the deadline in
// expectation, and be deterministic.
func TestStrategiesPlanValidDeterministic(t *testing.T) {
	view := testView(t)
	profile, _ := app.ByName("BT")
	d := testDeadline(profile, 2)
	params := map[string]map[string]float64{
		"sompi":         smallKnobs,
		"adaptive-ckpt": smallKnobs,
	}

	for _, name := range strategy.Names() {
		st, err := strategy.New(name, params[name])
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		p1, ex, err := st.Plan(context.Background(), view, strategy.Workload{Profile: profile}, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p1.Model.Validate(); err != nil {
			t.Fatalf("%s: invalid plan: %v", name, err)
		}
		if p1.Est.Time > d.Hours {
			t.Errorf("%s: expected time %.2fh misses deadline %.2fh", name, p1.Est.Time, d.Hours)
		}
		if p1.Est.Cost <= 0 {
			t.Errorf("%s: non-positive expected cost %v", name, p1.Est.Cost)
		}
		_ = ex // explain payloads are optional; notes are checked per-strategy below

		st2, _ := strategy.New(name, params[name])
		p2, _, err := st2.Plan(context.Background(), view, strategy.Workload{Profile: profile}, d)
		if err != nil {
			t.Fatalf("%s second plan: %v", name, err)
		}
		a, _ := json.Marshal(p1.Model)
		b, _ := json.Marshal(p2.Model)
		if string(a) != string(b) {
			t.Fatalf("%s: non-deterministic plan:\n 1: %s\n 2: %s", name, a, b)
		}
	}
}

// TestAdaptiveCkptRetunesCadence checks the cadence pass keeps the plan
// feasible and never worsens the joint expected cost versus the same base
// search.
func TestAdaptiveCkptRetunesCadence(t *testing.T) {
	view := testView(t)
	profile, _ := app.ByName("FT")
	d := testDeadline(profile, 2)

	base, err := strategy.New("sompi", smallKnobs)
	if err != nil {
		t.Fatal(err)
	}
	bp, _, err := base.Plan(context.Background(), view, strategy.Workload{Profile: profile}, d)
	if err != nil {
		t.Fatal(err)
	}

	ck, err := strategy.New("adaptive-ckpt", smallKnobs)
	if err != nil {
		t.Fatal(err)
	}
	cp, ex, err := ck.Plan(context.Background(), view, strategy.Workload{Profile: profile}, d)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Est.Cost > bp.Est.Cost*(1+1e-9) {
		t.Fatalf("cadence pass worsened expected cost: %.4f > %.4f", cp.Est.Cost, bp.Est.Cost)
	}
	if cp.Est.Time > d.Hours {
		t.Fatalf("cadence pass broke the deadline: %.2fh > %.2fh", cp.Est.Time, d.Hours)
	}
	if ex == nil || len(ex.Notes) == 0 {
		t.Fatalf("adaptive-ckpt explain notes missing")
	}
}

// TestAdaptiveCkptSearchesOnOneWorker holds the adaptive-ckpt search at
// one worker whatever GOMAXPROCS is, so its served evals/pruned counters
// never depend on the host. The optimizer opens one opt.search.worker
// span per search pass.
func TestAdaptiveCkptSearchesOnOneWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	view := testView(t)
	profile, _ := app.ByName("FT")
	ck, err := strategy.New("adaptive-ckpt", smallKnobs)
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewCollector(64)
	ctx, root := obs.StartRoot(context.Background(), c, "http.plan", "req-ckpt")
	if _, _, err := ck.Plan(ctx, view, strategy.Workload{Profile: profile}, testDeadline(profile, 2)); err != nil {
		t.Fatal(err)
	}
	root.End()
	workers := 0
	for _, sd := range c.Spans("req-ckpt", 0) {
		if sd.Name == "opt.search.worker" {
			workers++
		}
	}
	if workers != 1 {
		t.Fatalf("adaptive-ckpt searched on %d workers at GOMAXPROCS 2, want 1", workers)
	}
}

func TestScenarioCatalog(t *testing.T) {
	names := strategy.ScenarioNames()
	if len(names) < 4 {
		t.Fatalf("only %d scenarios: %v", len(names), names)
	}
	if _, err := strategy.NewScenario("no-such-scenario"); !errors.Is(err, strategy.ErrUnknownScenario) {
		t.Fatalf("unknown scenario: %v", err)
	}
	// Empty resolves to realistic.
	sc, err := strategy.NewScenario("")
	if err != nil || sc.Name != "realistic" {
		t.Fatalf(`NewScenario("") = %+v, %v`, sc, err)
	}

	// The realistic scenario must reproduce GenerateMarket exactly; the
	// others must produce a different market from the same seed.
	ref := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), testHours, testSeed)
	refKey := marketFingerprint(ref)
	for _, name := range names {
		sc, err := strategy.NewScenario(name)
		if err != nil {
			t.Fatalf("NewScenario(%q): %v", name, err)
		}
		m := sc.Market(testHours, testSeed)
		fp := marketFingerprint(m)
		if name == "realistic" && fp != refKey {
			t.Fatalf("realistic scenario market differs from GenerateMarket")
		}
		// Same scenario, same seed: identical market.
		if fp2 := marketFingerprint(sc.Market(testHours, testSeed)); fp2 != fp {
			t.Fatalf("scenario %q market not deterministic", name)
		}
	}
	// At least one scenario must actually change the prices.
	storm, _ := strategy.NewScenario("spike-storm")
	if marketFingerprint(storm.Market(testHours, testSeed)) == refKey {
		t.Fatalf("spike-storm scenario produced the realistic market")
	}
}

// marketFingerprint hashes a market's prices into a comparable string.
func marketFingerprint(m cloud.MarketView) string {
	var sum float64
	n := 0
	for _, k := range m.Keys() {
		tr := m.Trace(k.Type, k.Zone)
		for i, p := range tr.Prices {
			sum += p * float64(i%97+1)
			n++
		}
	}
	b, _ := json.Marshal(struct {
		S float64
		N int
	}{sum, n})
	return string(b)
}
