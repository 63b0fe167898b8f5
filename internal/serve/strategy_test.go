package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"

	"sompi/internal/serve"
	"sompi/internal/strategy"
)

// TestPlanDefaultCompatFixture pins the pre-strategy wire format: a plan
// request that does not name a strategy must serve byte-for-byte the same
// body as before the strategy catalog existed (testdata fixture captured
// at the seed commit), with the same miss-then-hit cache headers.
func TestPlanDefaultCompatFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/seed_plan_default.json")
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	want = bytes.TrimRight(want, "\n")

	ts := newTestServer(t, serve.Config{})
	status, hdr, body := postJSON(t, ts.URL+"/v1/plan", smallPlan(60))
	if status != http.StatusOK {
		t.Fatalf("plan: %d %s", status, body)
	}
	if got := hdr.Get("X-Sompid-Cache"); got != "miss" {
		t.Fatalf("first request cache header %q, want miss", got)
	}
	if got := bytes.TrimRight(body, "\n"); !bytes.Equal(got, want) {
		t.Fatalf("default plan body drifted from seed fixture:\n got: %s\nwant: %s", got, want)
	}

	status, hdr, body2 := postJSON(t, ts.URL+"/v1/plan", smallPlan(60))
	if status != http.StatusOK {
		t.Fatalf("repeat plan: %d %s", status, body2)
	}
	if got := hdr.Get("X-Sompid-Cache"); got != "hit" {
		t.Fatalf("repeat request cache header %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("cache hit served different bytes")
	}
}

// TestPlanUnknownStrategy asserts the typed 400 for unknown or malformed
// strategy names and parameters.
func TestPlanUnknownStrategy(t *testing.T) {
	ts := newTestServer(t, serve.Config{})

	req := smallPlan(60)
	req.Strategy = "definitely-not-registered"
	status, _, body := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown strategy: status %d %s, want 400", status, body)
	}
	if !strings.Contains(string(body), "unknown strategy") {
		t.Fatalf("unknown strategy error body %s", body)
	}

	// Malformed parameters on a known strategy are a 400 too.
	req = smallPlan(60)
	req.Strategy = "portfolio"
	req.StrategyParams = map[string]float64{"no-such-knob": 1}
	status, _, body = postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusBadRequest {
		t.Fatalf("bad params: status %d %s, want 400", status, body)
	}
}

// TestPlanStrategyRoundTrip drives every registered strategy through
// /v1/plan and checks each gets its own cache namespace: the default
// (unset) entry and the explicit "sompi" entry coexist without evicting
// one another, and each named strategy hits its own cached bytes.
func TestPlanStrategyRoundTrip(t *testing.T) {
	ts := newTestServer(t, serve.Config{})

	// Seed the default-path cache entry first.
	status, hdr, defBody := postJSON(t, ts.URL+"/v1/plan", smallPlan(60))
	if status != http.StatusOK || hdr.Get("X-Sompid-Cache") != "miss" {
		t.Fatalf("default plan: %d cache=%q", status, hdr.Get("X-Sompid-Cache"))
	}

	for _, name := range strategy.Names() {
		req := smallPlan(60)
		req.Strategy = name
		status, hdr, body := postJSON(t, ts.URL+"/v1/plan", req)
		if status != http.StatusOK {
			t.Fatalf("%s: %d %s", name, status, body)
		}
		if got := hdr.Get("X-Sompid-Cache"); got != "miss" {
			t.Fatalf("%s first request cache header %q, want miss", name, got)
		}
		var resp serve.PlanResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s: decoding response: %v", name, err)
		}
		if resp.Strategy != name {
			t.Fatalf("%s: response strategy %q", name, resp.Strategy)
		}
		if resp.Estimate.Cost <= 0 {
			t.Fatalf("%s: served estimate %+v", name, resp.Estimate)
		}

		status, hdr, body2 := postJSON(t, ts.URL+"/v1/plan", req)
		if status != http.StatusOK || hdr.Get("X-Sompid-Cache") != "hit" {
			t.Fatalf("%s repeat: %d cache=%q", name, status, hdr.Get("X-Sompid-Cache"))
		}
		if !bytes.Equal(body, body2) {
			t.Fatalf("%s: cache hit served different bytes", name)
		}
	}

	// The named-strategy traffic must not have evicted the default entry.
	status, hdr, body := postJSON(t, ts.URL+"/v1/plan", smallPlan(60))
	if status != http.StatusOK || hdr.Get("X-Sompid-Cache") != "hit" {
		t.Fatalf("default after strategies: %d cache=%q", status, hdr.Get("X-Sompid-Cache"))
	}
	if !bytes.Equal(body, defBody) {
		t.Fatalf("default entry changed after strategy traffic")
	}
}

// TestPlanSompiStrategyMatchesDefault checks the explicit "sompi" strategy
// serves a plan identical to the default path (only the echo field and
// cache namespace differ).
func TestPlanSompiStrategyMatchesDefault(t *testing.T) {
	ts := newTestServer(t, serve.Config{})

	_, _, defBody := postJSON(t, ts.URL+"/v1/plan", smallPlan(60))
	req := smallPlan(60)
	req.Strategy = "sompi"
	status, _, body := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK {
		t.Fatalf("sompi strategy: %d %s", status, body)
	}

	var def, st serve.PlanResponse
	if err := json.Unmarshal(defBody, &def); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Strategy != "sompi" {
		t.Fatalf("strategy echo %q", st.Strategy)
	}
	a, _ := json.Marshal(def.Plan)
	b, _ := json.Marshal(st.Plan)
	if !bytes.Equal(a, b) {
		t.Fatalf("sompi strategy plan diverged from default path:\n default: %s\nstrategy: %s", a, b)
	}
	if def.Estimate != st.Estimate {
		t.Fatalf("estimates diverged: %+v vs %+v", def.Estimate, st.Estimate)
	}
}

// TestStrategiesEndpoint checks GET /v1/strategies lists the registry
// with parameter schemas and the scenario catalog.
func TestStrategiesEndpoint(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	body := getBody(t, ts.URL+"/v1/strategies")

	var resp serve.StrategiesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding: %v\n%s", err, body)
	}
	if resp.Default != "sompi" {
		t.Fatalf("default strategy %q, want sompi", resp.Default)
	}
	if len(resp.Strategies) < 4 {
		t.Fatalf("only %d strategies listed", len(resp.Strategies))
	}
	if resp.Strategies[0].Name != "sompi" || !resp.Strategies[0].Default {
		t.Fatalf("first strategy %+v, want default sompi", resp.Strategies[0])
	}
	byName := map[string]serve.StrategyInfo{}
	for _, si := range resp.Strategies {
		byName[si.Name] = si
	}
	pf, ok := byName["portfolio"]
	if !ok {
		t.Fatalf("portfolio missing from %v", resp.Strategies)
	}
	var hasContracts bool
	for _, p := range pf.Params {
		if p.Name == "contracts" {
			hasContracts = true
		}
	}
	if !hasContracts {
		t.Fatalf("portfolio param schema missing contracts: %+v", pf.Params)
	}
	if len(resp.Scenarios) < 4 {
		t.Fatalf("only %d scenarios listed", len(resp.Scenarios))
	}
}

// TestStrategyMetrics checks the per-strategy metric families: bounded
// label sets from the registry, request counts and cache hit/miss counts
// that move with traffic.
func TestStrategyMetrics(t *testing.T) {
	ts := newTestServer(t, serve.Config{})

	postJSON(t, ts.URL+"/v1/plan", smallPlan(60)) // default → sompi label, miss
	postJSON(t, ts.URL+"/v1/plan", smallPlan(60)) // hit
	req := smallPlan(60)
	req.Strategy = "noft"
	postJSON(t, ts.URL+"/v1/plan", req) // noft miss

	metrics := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, metrics, `sompid_plan_requests_total{strategy="sompi"}`); got != 2 {
		t.Fatalf("sompi plan requests = %v, want 2", got)
	}
	if got := metricValue(t, metrics, `sompid_plan_requests_total{strategy="noft"}`); got != 1 {
		t.Fatalf("noft plan requests = %v, want 1", got)
	}
	if got := metricValue(t, metrics, `sompid_strategy_cache_hits_total{strategy="sompi"}`); got != 1 {
		t.Fatalf("sompi cache hits = %v, want 1", got)
	}
	if got := metricValue(t, metrics, `sompid_strategy_cache_misses_total{strategy="sompi"}`); got != 1 {
		t.Fatalf("sompi cache misses = %v, want 1", got)
	}
	if got := metricValue(t, metrics, `sompid_strategy_cache_misses_total{strategy="noft"}`); got != 1 {
		t.Fatalf("noft cache misses = %v, want 1", got)
	}
	// Every registered strategy appears, even with zero traffic.
	for _, name := range strategy.Names() {
		metricValue(t, metrics, `sompid_plan_requests_total{strategy="`+name+`"}`)
	}
}

// TestMonteCarloRegistryStrategy drives /v1/montecarlo with a registry
// strategy name (and rejects unknown names with a 400).
func TestMonteCarloRegistryStrategy(t *testing.T) {
	ts := newTestServer(t, serve.Config{})

	req := serve.MonteCarloRequest{
		App: "BT", DeadlineHours: 60, Runs: 2, Seed: 1, Workers: 1,
		Strategy: "noft",
	}
	status, _, body := postJSON(t, ts.URL+"/v1/montecarlo", req)
	if status != http.StatusOK {
		t.Fatalf("montecarlo noft: %d %s", status, body)
	}
	var resp serve.MonteCarloResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != "noft" || resp.Runs != 2 {
		t.Fatalf("montecarlo response %+v", resp)
	}

	req.Strategy = "nope"
	status, _, body = postJSON(t, ts.URL+"/v1/montecarlo", req)
	if status != http.StatusBadRequest {
		t.Fatalf("montecarlo unknown strategy: %d %s, want 400", status, body)
	}
}

// TestSessionWithStrategy registers a session pinned to a non-default
// strategy and advances it one window: the session must survive the
// re-optimization driven by the pinned strategy.
func TestSessionWithStrategy(t *testing.T) {
	ts := newTestServer(t, serve.Config{})

	req := smallPlan(120)
	req.Strategy = "noft"
	req.Track = true
	status, _, body := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK {
		t.Fatalf("tracked plan: %d %s", status, body)
	}
	var resp serve.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.SessionID == "" {
		t.Fatalf("no session id in %s", body)
	}

	sessions := getBody(t, ts.URL+"/v1/sessions")
	if !strings.Contains(string(sessions), resp.SessionID) {
		t.Fatalf("session %s not listed in %s", resp.SessionID, sessions)
	}
}

// TestStrategySessionReoptCountsEffort: a session pinned to a named
// strategy re-optimizes through the strategy's own Plan call, and the
// search effort of that call lands in sompid_optimizer_evals_total like
// every other optimization's — the counter's HELP says "across all
// optimizations".
func TestStrategySessionReoptCountsEffort(t *testing.T) {
	const window = 2.0
	ts := newTestServer(t, serve.Config{WindowHours: window})

	// adaptive-ckpt runs the κ-subset search, so its plans report Evals;
	// "sompi" by name would take the default re-opt loop.
	req := smallPlan(60)
	req.Strategy = "adaptive-ckpt"
	req.Track = true
	if status, _, body := postJSON(t, ts.URL+"/v1/plan", req); status != http.StatusOK {
		t.Fatalf("tracked plan: %d %s", status, body)
	}
	before := metricValue(t, getBody(t, ts.URL+"/metrics"), "sompid_optimizer_evals_total")

	// Cross one window boundary on every shard at flat cheap prices, so
	// the session survives its window and re-plans.
	ticks := flatTicks(window)
	if status, _, body := postJSON(t, ts.URL+"/v1/prices?sync=1", ticks); status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}

	metrics := getBody(t, ts.URL+"/metrics")
	if got := metricValue(t, metrics, "sompid_reoptimizations_total"); got < 1 {
		t.Fatalf("session did not re-optimize across the boundary (reoptimizations = %v)", got)
	}
	if after := metricValue(t, metrics, "sompid_optimizer_evals_total"); after <= before {
		t.Fatalf("strategy re-opt left sompid_optimizer_evals_total at %v (was %v)", after, before)
	}
}
