package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sompi/internal/app"
	"sompi/internal/baselines"
	"sompi/internal/cloud"
	"sompi/internal/opt"
	"sompi/internal/replay"
	"sompi/internal/serve"
)

const (
	testHours = 240
	testSeed  = 7
)

// testMarket regenerates the deterministic market the test server runs
// on, so library-path comparisons see byte-for-byte the same prices.
func testMarket() *cloud.Market {
	return cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), testHours, testSeed)
}

func newTestServer(t *testing.T, cfg serve.Config) *httptest.Server {
	t.Helper()
	if cfg.Market == nil {
		cfg.Market = testMarket()
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if cerr := s.Close(); cerr != nil {
			t.Errorf("server close: %v", cerr)
		}
	})
	return ts
}

// postJSON posts v and returns the status, headers and body.
func postJSON(t *testing.T, url string, v any) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header, out
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, out)
	}
	return out
}

// metricValue extracts one gauge/counter from Prometheus text.
func metricValue(t *testing.T, metrics []byte, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`)
	m := re.FindSubmatch(metrics)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, metrics)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

// smallPlan is a fast deterministic plan request (serial search, tiny
// subset space) used wherever the test only needs *a* plan.
func smallPlan(deadline float64) serve.PlanRequest {
	return serve.PlanRequest{
		App: "BT", DeadlineHours: deadline,
		Workers: 1, Kappa: 2, GridLevels: 3, MaxGroups: 3,
	}
}

// flatTicks is one feed advancing every market by the given hours at a
// flat 0.05 — below every plausible bid, so tracked sessions survive
// the windows it crosses and re-optimize rather than die.
func flatTicks(hours float64) []serve.PriceTick {
	samples := make([]float64, int(hours*12))
	for i := range samples {
		samples[i] = 0.05
	}
	var ticks []serve.PriceTick
	for _, key := range testMarket().Keys() {
		ticks = append(ticks, serve.PriceTick{Type: key.Type, Zone: key.Zone, Prices: samples})
	}
	return ticks
}

// TestPlanMatchesLibrary is the service's core guarantee: the served
// plan is byte-identical to a library-path OptimizeContext call at the
// same market version (Evals/Pruned are deterministic too).
func TestPlanMatchesLibrary(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	req := smallPlan(60)

	status, hdr, body := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK {
		t.Fatalf("plan: %d %s", status, body)
	}
	if got := hdr.Get("X-Sompid-Cache"); got != "miss" {
		t.Fatalf("first request cache header %q, want miss", got)
	}

	// Library path over an identical market: same training window, same
	// config, rendered through the same encoding helper.
	m := testMarket()
	profile, _ := app.ByName("BT")
	frontier := m.MinDuration()
	lo := math.Max(0, frontier-baselines.History)
	train := m.Window(lo, frontier-lo)
	res, err := opt.OptimizeContext(context.Background(), req.Config(profile, train))
	if err != nil {
		t.Fatalf("library optimize: %v", err)
	}
	want, _ := json.Marshal(serve.BuildPlanResponse(m.Version(), res))
	if !bytes.Equal(body, want) {
		t.Fatalf("served plan differs from library plan:\n got %s\nwant %s", body, want)
	}

	var resp serve.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.MarketVersion != 1 || len(resp.Plan.Groups) == 0 || resp.Evals == 0 {
		t.Fatalf("implausible plan response: %+v", resp)
	}
}

// TestPlanCacheHitAndInvalidation: a repeated request is a byte-equal
// hit; ingestion bumps the version, which invalidates the cache (the key
// changed) and shows up in the fresh plan's market_version.
func TestPlanCacheHitAndInvalidation(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	req := smallPlan(60)

	_, _, first := postJSON(t, ts.URL+"/v1/plan", req)
	status, hdr, second := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK || hdr.Get("X-Sompid-Cache") != "hit" {
		t.Fatalf("second request: %d, cache %q, want 200 hit", status, hdr.Get("X-Sompid-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cache hit is not byte-identical:\n%s\n%s", first, second)
	}

	tick := serve.PriceTick{Type: cloud.M1Medium.Name, Zone: cloud.ZoneA, Prices: []float64{0.05, 0.05}}
	status, _, body := postJSON(t, ts.URL+"/v1/prices", tick)
	if status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}
	var pr serve.PricesResponse
	json.Unmarshal(body, &pr)
	if pr.MarketVersion != 2 || pr.Ticks != 1 || pr.Samples != 2 {
		t.Fatalf("ingest response: %+v, want version 2, 1 tick, 2 samples", pr)
	}

	status, hdr, third := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK || hdr.Get("X-Sompid-Cache") != "miss" {
		t.Fatalf("post-ingest request: %d, cache %q, want 200 miss (version changed)", status, hdr.Get("X-Sompid-Cache"))
	}
	var resp serve.PlanResponse
	json.Unmarshal(third, &resp)
	if resp.MarketVersion != 2 {
		t.Fatalf("post-ingest plan at version %d, want 2", resp.MarketVersion)
	}

	mx := getBody(t, ts.URL+"/metrics")
	if hits := metricValue(t, mx, "sompid_plan_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits %v, want 1", hits)
	}
	if misses := metricValue(t, mx, "sompid_plan_cache_misses_total"); misses != 2 {
		t.Fatalf("cache misses %v, want 2", misses)
	}
	if v := metricValue(t, mx, "sompid_market_version"); v != 2 {
		t.Fatalf("market version metric %v, want 2", v)
	}
}

// TestPlanCacheIgnoresWorkers: workers is inert, so requests that differ
// only there share one cache entry and are served the same bytes.
func TestPlanCacheIgnoresWorkers(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	req := smallPlan(60)
	req.Workers = 0
	status, hdr, first := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK || hdr.Get("X-Sompid-Cache") != "miss" {
		t.Fatalf("workers 0: %d, cache %q, want 200 miss", status, hdr.Get("X-Sompid-Cache"))
	}
	req.Workers = 1
	status, hdr, second := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK || hdr.Get("X-Sompid-Cache") != "hit" {
		t.Fatalf("workers 1 after workers 0: %d, cache %q, want 200 hit", status, hdr.Get("X-Sompid-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("workers 0 and 1 served different bytes:\n%s\n%s", first, second)
	}
}

// TestPlanCacheIgnoresWorkersParam is the same for the strategy_params
// spelling: a request adding {"workers": 2} there is a hit on the entry a
// request without params made, with the same bytes.
func TestPlanCacheIgnoresWorkersParam(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	req := smallPlan(60)
	status, hdr, first := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK || hdr.Get("X-Sompid-Cache") != "miss" {
		t.Fatalf("no params: %d, cache %q, want 200 miss", status, hdr.Get("X-Sompid-Cache"))
	}
	req.StrategyParams = map[string]float64{"workers": 2}
	status, hdr, second := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK || hdr.Get("X-Sompid-Cache") != "hit" {
		t.Fatalf("strategy_params workers 2 after no params: %d, cache %q, want 200 hit", status, hdr.Get("X-Sompid-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("no params and strategy_params workers 2 served different bytes:\n%s\n%s", first, second)
	}
}

func TestPlanValidationErrors(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	cases := []struct {
		name string
		req  serve.PlanRequest
		want int
	}{
		{"unknown workload", serve.PlanRequest{App: "NOPE", DeadlineHours: 50}, http.StatusBadRequest},
		{"negative deadline", serve.PlanRequest{App: "BT", DeadlineHours: -5}, http.StatusBadRequest},
		{"kappa over max groups", serve.PlanRequest{App: "BT", DeadlineHours: 50, Kappa: 5, MaxGroups: 2}, http.StatusBadRequest},
		{"infeasible deadline", serve.PlanRequest{App: "BT", DeadlineHours: 0.001}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		status, _, body := postJSON(t, ts.URL+"/v1/plan", tc.req)
		if status != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, status, body, tc.want)
		}
		var e serve.ErrorResponse
		if json.Unmarshal(body, &e) != nil || e.Error == "" {
			t.Errorf("%s: error body %s is not an ErrorResponse", tc.name, body)
		}
	}
}

// TestEvaluateEndpoint round-trips a served plan through /v1/evaluate
// and expects the cost model to reproduce the optimizer's estimate
// exactly — the wire encoding loses nothing the model needs.
func TestEvaluateEndpoint(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	_, _, planBody := postJSON(t, ts.URL+"/v1/plan", smallPlan(60))
	var plan serve.PlanResponse
	if err := json.Unmarshal(planBody, &plan); err != nil {
		t.Fatalf("unmarshal plan: %v", err)
	}

	status, _, body := postJSON(t, ts.URL+"/v1/evaluate", serve.EvaluateRequest{App: "BT", Plan: plan.Plan})
	if status != http.StatusOK {
		t.Fatalf("evaluate: %d %s", status, body)
	}
	var ev serve.EvaluateResponse
	json.Unmarshal(body, &ev)
	if ev.Estimate != plan.Estimate {
		t.Fatalf("evaluate estimate %+v differs from optimizer estimate %+v", ev.Estimate, plan.Estimate)
	}

	// A plan naming an unknown instance type is unprocessable.
	bad := plan.Plan
	bad.Recovery.Type = "x9.metal"
	status, _, body = postJSON(t, ts.URL+"/v1/evaluate", serve.EvaluateRequest{App: "BT", Plan: bad})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("bad recovery type: %d %s, want 422", status, body)
	}
}

// TestEvaluateRejectsUncountableInterval: at an interval so short that
// the checkpoint count ⌊t/F⌋ overflows an int, a plan bidding above every
// price priced to about -2.5e18 dollars. Any positive interval below
// T/2^53 is unprocessable, and the same plan at a countable interval
// still prices.
func TestEvaluateRejectsUncountableInterval(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	req := serve.EvaluateRequest{App: "BT", Plan: serve.PlanPayload{
		Groups:   []serve.GroupPayload{{Type: cloud.C3XLarge.Name, Zone: cloud.ZoneA, Bid: 5, IntervalHours: 1e-20}},
		Recovery: serve.RecoveryPayload{Type: cloud.CC28XLarge.Name},
	}}
	status, _, body := postJSON(t, ts.URL+"/v1/evaluate", req)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("interval 1e-20 h: %d %s, want 422", status, body)
	}

	req.Plan.Groups[0].IntervalHours = 2
	status, _, body = postJSON(t, ts.URL+"/v1/evaluate", req)
	if status != http.StatusOK {
		t.Fatalf("interval 2 h: %d %s", status, body)
	}
	var ev serve.EvaluateResponse
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !(ev.Estimate.Cost >= 0) {
		t.Fatalf("interval 2 h priced to %v", ev.Estimate.Cost)
	}
}

// TestMonteCarloEndpoint checks the served statistics equal a
// library-path MonteCarloContext run with the same seed on the same
// market snapshot.
func TestMonteCarloEndpoint(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	req := serve.MonteCarloRequest{
		App: "BT", DeadlineHours: 30, Runs: 5, Seed: 3, Workers: 2, Strategy: "baseline",
	}
	status, _, body := postJSON(t, ts.URL+"/v1/montecarlo", req)
	if status != http.StatusOK {
		t.Fatalf("montecarlo: %d %s", status, body)
	}
	var got serve.MonteCarloResponse
	json.Unmarshal(body, &got)

	profile, _ := app.ByName("BT")
	m := testMarket()
	st, err := replay.MonteCarloContext(context.Background(), baselines.Baseline(),
		&replay.Runner{Market: m, Profile: profile},
		replay.MCConfig{Deadline: 30, Runs: 5, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatalf("library montecarlo: %v", err)
	}
	if got.Runs != st.Runs || got.CostMean != st.Cost.Mean() || got.HoursMean != st.Hours.Mean() {
		t.Fatalf("served stats %+v differ from library stats %+v", got, st)
	}
	if got.Strategy != "Baseline" {
		t.Fatalf("strategy name %q, want Baseline", got.Strategy)
	}

	status, _, body = postJSON(t, ts.URL+"/v1/montecarlo",
		serve.MonteCarloRequest{App: "BT", DeadlineHours: 30, Runs: 5, Strategy: "nope"})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown strategy: %d %s, want 400", status, body)
	}
	status, _, body = postJSON(t, ts.URL+"/v1/montecarlo",
		serve.MonteCarloRequest{App: "BT", DeadlineHours: 30, Runs: 0})
	if status != http.StatusBadRequest {
		t.Fatalf("zero runs: %d %s, want 400", status, body)
	}
	// Workers past the bound are refused before any replay starts, even
	// where the run count would have capped them.
	status, _, body = postJSON(t, ts.URL+"/v1/montecarlo",
		serve.MonteCarloRequest{App: "BT", DeadlineHours: 30, Runs: 1, Workers: 257})
	if status != http.StatusBadRequest || !strings.Contains(string(body), "257 workers") {
		t.Fatalf("257 workers: %d %s, want 400", status, body)
	}
}

// TestPricesStreamAndErrors covers the NDJSON stream shape, the array
// shape, and the typed rejection paths.
func TestPricesStreamAndErrors(t *testing.T) {
	ts := newTestServer(t, serve.Config{})

	// NDJSON: two ticks in one body.
	nd := fmt.Sprintf("{%q:%q,%q:%q,%q:[0.05]}\n{%q:%q,%q:%q,%q:[0.06,0.07]}\n",
		"type", cloud.M1Small.Name, "zone", cloud.ZoneB, "prices",
		"type", cloud.M1Small.Name, "zone", cloud.ZoneB, "prices")
	resp, err := http.Post(ts.URL+"/v1/prices", "application/x-ndjson", strings.NewReader(nd))
	if err != nil {
		t.Fatalf("ndjson post: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var pr serve.PricesResponse
	json.Unmarshal(body, &pr)
	if resp.StatusCode != http.StatusOK || pr.Ticks != 2 || pr.Samples != 3 || pr.MarketVersion != 3 {
		t.Fatalf("ndjson ingest: %d %+v, want 2 ticks, 3 samples, version 3", resp.StatusCode, pr)
	}

	// Array shape.
	status, _, body := postJSON(t, ts.URL+"/v1/prices", []serve.PriceTick{
		{Type: cloud.C3XLarge.Name, Zone: cloud.ZoneC, Prices: []float64{0.1}},
		{Type: cloud.C3XLarge.Name, Zone: cloud.ZoneA, Prices: []float64{0.1}},
	})
	json.Unmarshal(body, &pr)
	if status != http.StatusOK || pr.Ticks != 2 || pr.MarketVersion != 5 {
		t.Fatalf("array ingest: %d %+v, want 2 ticks at version 5", status, pr)
	}

	// Unknown market: 422, and the version must not move.
	status, _, body = postJSON(t, ts.URL+"/v1/prices",
		serve.PriceTick{Type: "x9.metal", Zone: cloud.ZoneA, Prices: []float64{0.1}})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("unknown market: %d %s, want 422", status, body)
	}

	// Negative price: 400, version still parked.
	status, _, body = postJSON(t, ts.URL+"/v1/prices",
		serve.PriceTick{Type: cloud.M1Small.Name, Zone: cloud.ZoneA, Prices: []float64{-1}})
	if status != http.StatusBadRequest {
		t.Fatalf("negative price: %d %s, want 400", status, body)
	}

	mx := getBody(t, ts.URL+"/metrics")
	if v := metricValue(t, mx, "sompid_market_version"); v != 5 {
		t.Fatalf("market version %v after rejected ticks, want 5", v)
	}
	if v := metricValue(t, mx, "sompid_ingest_samples_total"); v != 5 {
		t.Fatalf("ingested samples %v, want 5", v)
	}
}

// TestSessionReoptimization is the tentpole's adaptive loop end to end:
// a tracked plan becomes a session; ingesting prices past the session's
// T_m boundary replays the elapsed window against the actual ticks and
// re-optimizes the residual — observable in the ingest response, the
// session listing and /metrics.
func TestSessionReoptimization(t *testing.T) {
	const window = 2.0
	ts := newTestServer(t, serve.Config{WindowHours: window})

	req := smallPlan(60)
	req.Track = true
	status, _, body := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK {
		t.Fatalf("tracked plan: %d %s", status, body)
	}
	var plan serve.PlanResponse
	json.Unmarshal(body, &plan)
	if plan.SessionID == "" {
		t.Fatalf("tracked plan has no session id: %s", body)
	}

	mx := getBody(t, ts.URL+"/metrics")
	if v := metricValue(t, mx, "sompid_active_sessions"); v != 1 {
		t.Fatalf("active sessions %v, want 1", v)
	}

	// Advance every market two hours (one window) past the frontier. The
	// flat 0.05 price sits below every plausible bid, so the groups
	// survive the window and the session re-optimizes rather than dying.
	ticks := flatTicks(window)
	status, _, body = postJSON(t, ts.URL+"/v1/prices?sync=1", ticks)
	if status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}
	var pr serve.PricesResponse
	json.Unmarshal(body, &pr)
	if pr.Reoptimized < 1 {
		t.Fatalf("ingest crossed the window boundary but re-optimized %d sessions: %+v", pr.Reoptimized, pr)
	}

	var sessions []serve.SessionInfo
	json.Unmarshal(getBody(t, ts.URL+"/v1/sessions"), &sessions)
	if len(sessions) != 1 {
		t.Fatalf("session listing: %+v, want 1 session", sessions)
	}
	got := sessions[0]
	if got.ID != plan.SessionID || got.Reoptimized < 1 || got.Windows < 1 || got.Progress <= 0 {
		t.Fatalf("session did not advance through the window: %+v", got)
	}
	if got.PlanVersion < 2 {
		t.Fatalf("session plan version %d, want re-optimized at an ingested version", got.PlanVersion)
	}

	mx = getBody(t, ts.URL+"/metrics")
	if v := metricValue(t, mx, "sompid_reoptimizations_total"); v < 1 {
		t.Fatalf("reoptimizations metric %v, want >= 1", v)
	}
}

// slowPlanRequest is an exhaustive search over all twelve markets on an
// eight-level grid: 2,144,481 leaves, several hundred milliseconds on
// any machine, so a client that gives up after 50 ms always gives up
// first. (The default knobs' 103,945 leaves finish in about 30 ms.)
func slowPlanRequest() serve.PlanRequest {
	return serve.PlanRequest{
		App: "BT", DeadlineHours: 200, Workers: 1, DisablePruning: true,
		MaxGroups: 12, GridLevels: 8,
	}
}

// TestPlanCancellationStopsSearch cancels a deliberately exhaustive
// request mid-search and asserts (a) the service registers the
// cancellation and (b) the search provably stopped early: the evals
// counter stays below what the same request performs when allowed to
// finish.
func TestPlanCancellationStopsSearch(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	req := slowPlanRequest()
	payload, _ := json.Marshal(req)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	httpReq, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/plan", bytes.NewReader(payload))
	httpReq.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(httpReq); err == nil {
		resp.Body.Close()
		t.Fatalf("expected the client to abandon the request, got status %d", resp.StatusCode)
	}

	// The handler notices the disconnect at the next evaluation; give it
	// a moment, then read the counters.
	var cancelled, evals float64
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mx := getBody(t, ts.URL+"/metrics")
		cancelled = metricValue(t, mx, "sompid_requests_cancelled_total")
		evals = metricValue(t, mx, "sompid_optimizer_evals_total")
		if cancelled >= 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if cancelled < 1 {
		t.Fatalf("cancelled-requests metric %v, want >= 1", cancelled)
	}

	// Full search for comparison (library path, same config).
	profile, _ := app.ByName("BT")
	m := testMarket()
	lo := m.MinDuration() - baselines.History
	full, err := opt.OptimizeContext(context.Background(), req.Config(profile, m.Window(lo, baselines.History)))
	if err != nil {
		t.Fatalf("full search: %v", err)
	}
	if evals <= 0 || evals >= float64(full.Evals) {
		t.Fatalf("cancelled search recorded %v evals, want in (0, %d): the search did not stop early", evals, full.Evals)
	}
}

// TestConcurrentPlansAndIngest hammers planning and ingestion from
// concurrent goroutines; under -race this is the service's locking
// soundness gate.
func TestConcurrentPlansAndIngest(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				req := serve.PlanRequest{
					App: "BT", DeadlineHours: 40 + float64(4*g+i),
					Workers: 1, Kappa: 1, GridLevels: 2, MaxGroups: 2,
				}
				status, _, body := postJSON(t, ts.URL+"/v1/plan", req)
				if status != http.StatusOK {
					errs <- fmt.Sprintf("plan g%d i%d: %d %s", g, i, status, body)
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			zone := []string{cloud.ZoneA, cloud.ZoneB}[g]
			for i := 0; i < 5; i++ {
				tick := serve.PriceTick{Type: cloud.M1Medium.Name, Zone: zone, Prices: []float64{0.05}}
				status, _, body := postJSON(t, ts.URL+"/v1/prices", tick)
				if status != http.StatusOK {
					errs <- fmt.Sprintf("ingest g%d i%d: %d %s", g, i, status, body)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	mx := getBody(t, ts.URL+"/metrics")
	if v := metricValue(t, mx, "sompid_ingest_ticks_total"); v != 10 {
		t.Fatalf("ingested ticks %v, want 10", v)
	}
	if v := metricValue(t, mx, "sompid_market_version"); v != 11 {
		t.Fatalf("market version %v, want 11 (1 + 10 appends)", v)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	var hz struct {
		Status        string  `json:"status"`
		MarketVersion uint64  `json:"market_version"`
		Frontier      float64 `json:"frontier_hours"`
	}
	json.Unmarshal(getBody(t, ts.URL+"/healthz"), &hz)
	if hz.Status != "ok" || hz.MarketVersion != 1 || hz.Frontier != testHours {
		t.Fatalf("healthz: %+v", hz)
	}
}

func TestMethodAndRouteErrors(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/plan: %d, want 405", resp.StatusCode)
	}
	status, _, _ := postJSON(t, ts.URL+"/v1/unknown", struct{}{})
	if status != http.StatusNotFound {
		t.Fatalf("POST /v1/unknown: %d, want 404", status)
	}
}
