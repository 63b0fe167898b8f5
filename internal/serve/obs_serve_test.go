package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"sompi/internal/cloud"
	"sompi/internal/obs"
	"sompi/internal/serve"
)

// TestExplainQueryReturnsTrail: ?explain=1 must return the identical
// plan plus a populated decision trail, and must not poison the plan
// cache (cached bodies never carry a trail).
func TestExplainQueryReturnsTrail(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	req := smallPlan(60)

	status, _, plain := postJSON(t, ts.URL+"/v1/plan", req)
	if status != http.StatusOK {
		t.Fatalf("plan: %d %s", status, plain)
	}
	if bytes.Contains(plain, []byte(`"explain"`)) {
		t.Fatalf("unexplained plan carries an explain field: %s", plain)
	}

	status, _, explained := postJSON(t, ts.URL+"/v1/plan?explain=1", req)
	if status != http.StatusOK {
		t.Fatalf("explained plan: %d %s", status, explained)
	}
	var pr serve.PlanResponse
	if err := json.Unmarshal(explained, &pr); err != nil {
		t.Fatalf("unmarshal explained plan: %v", err)
	}
	ex := pr.Explain
	if ex == nil {
		t.Fatalf("?explain=1 returned no trail: %s", explained)
	}
	if len(ex.Candidates) == 0 || len(ex.Stages) == 0 || len(ex.Selected) == 0 {
		t.Fatalf("trail incomplete: %d candidates, %d stages, %d selected", len(ex.Candidates), len(ex.Stages), len(ex.Selected))
	}
	for _, d := range ex.Candidates {
		if d.Reason == "" {
			t.Fatalf("candidate %s has no decision reason", d.Market)
		}
		if d.Selected && !d.Kept {
			t.Fatalf("candidate %s selected but not kept", d.Market)
		}
	}

	// The trail is an observation, not a perturbation: stripping it (and
	// normalizing the search-effort counters, which legitimately shrink
	// as the server's reuse cache warms between the two requests) gives
	// back the exact bytes of the unexplained response.
	var plainPR serve.PlanResponse
	if err := json.Unmarshal(plain, &plainPR); err != nil {
		t.Fatalf("unmarshal plain plan: %v", err)
	}
	pr.Explain = nil
	pr.Evals, pr.Pruned, pr.SavedEvals = plainPR.Evals, plainPR.Pruned, plainPR.SavedEvals
	stripped, _ := json.Marshal(pr)
	if !bytes.Equal(stripped, plain) {
		t.Fatalf("explained plan differs:\nexplain %s\n  plain %s", stripped, plain)
	}

	// The cache was neither read nor written by the explained request: a
	// repeat of the plain request is a hit and is byte-identical.
	before := metricValue(t, getBody(t, ts.URL+"/metrics"), "sompid_plan_cache_hits_total")
	_, _, again := postJSON(t, ts.URL+"/v1/plan", req)
	if !bytes.Equal(again, plain) {
		t.Fatalf("cached plan changed after an explained request:\n before %s\n  after %s", plain, again)
	}
	if after := metricValue(t, getBody(t, ts.URL+"/metrics"), "sompid_plan_cache_hits_total"); after != before+1 {
		t.Fatalf("cache hits %v -> %v, want one hit for the repeated plain request", before, after)
	}
}

// TestDebugTraceEndpoint: the span ring must surface a plan request's
// full trace — HTTP root span plus the optimizer stage spans — and an
// ingest request's shard append under its root, filtered by request ID.
// A /v1/plan miss records exactly http.plan plus the optimizer's 6 + 1
// spans at either request size, whatever workers says (DESIGN §16 O1,
// O2).
func TestDebugTraceEndpoint(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	tracePlan := func(id string, req serve.PlanRequest) ([]obs.SpanData, int) {
		t.Helper()
		payload, _ := json.Marshal(req)
		httpReq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", bytes.NewReader(payload))
		httpReq.Header.Set("Content-Type", "application/json")
		httpReq.Header.Set("X-Request-Id", id)
		resp, err := http.DefaultClient.Do(httpReq)
		if err != nil {
			t.Fatalf("plan: %v", err)
		}
		var pr serve.PlanResponse
		json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sompid-Cache") != "miss" {
			t.Fatalf("plan %s: %d, cache %q; want a 200 miss", id, resp.StatusCode, resp.Header.Get("X-Sompid-Cache"))
		}
		if got := resp.Header.Get("X-Request-Id"); got != id {
			t.Fatalf("response echoed request id %q, want %s", got, id)
		}
		var tr serve.TraceResponse
		if err := json.Unmarshal(getBody(t, ts.URL+"/debug/trace?request_id="+id), &tr); err != nil {
			t.Fatalf("unmarshal trace: %v", err)
		}
		byName := map[string]int{}
		for _, sp := range tr.Spans {
			if sp.TraceID != id {
				t.Fatalf("span %q leaked from trace %q", sp.Name, sp.TraceID)
			}
			if sp.SpanID == 0 {
				t.Fatalf("span %q has no id", sp.Name)
			}
			byName[sp.Name]++
		}
		want := map[string]int{
			"http.plan":                1,
			"opt.optimize":             1,
			"opt.select_on_demand":     1,
			"opt.enumerate_candidates": 1,
			"opt.bid_grid":             1,
			"opt.rank_candidates":      1,
			"opt.subset_search":        1,
			"opt.search.worker":        1,
		}
		if fmt.Sprint(byName) != fmt.Sprint(want) {
			t.Fatalf("plan %s: %d spans %v, want 1 + 6 + 1 %v", id, len(tr.Spans), byName, want)
		}
		return tr.Spans, pr.Evals
	}
	// The small plan at one worker, then default search knobs at two: a
	// search over 100x larger, still with one opt.search.worker span.
	planSpans, smallEvals := tracePlan("trace-test-1", smallPlan(60))
	if _, bigEvals := tracePlan("trace-test-big", serve.PlanRequest{App: "BT", DeadlineHours: 60, Workers: 2}); bigEvals < 100*smallEvals {
		t.Fatalf("plan evals %d and %d differ by less than 100x", smallEvals, bigEvals)
	}

	// The HTTP root span parents the optimizer spans.
	var rootID uint64
	for _, sp := range planSpans {
		if sp.Name == "http.plan" {
			rootID = sp.SpanID
		}
	}
	parented := false
	for _, sp := range planSpans {
		if sp.Name == "opt.optimize" && sp.ParentID == rootID {
			parented = true
		}
	}
	if !parented {
		t.Fatalf("opt.optimize is not parented under http.plan: %+v", planSpans)
	}

	// An ingest request's shard append is part of its trace, under its
	// http.prices root.
	tick, _ := json.Marshal(serve.PriceTick{Type: cloud.M1Medium.Name, Zone: cloud.ZoneA, Prices: []float64{0.05}})
	httpReq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/prices", bytes.NewReader(tick))
	httpReq.Header.Set("X-Request-Id", "trace-test-prices")
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatalf("prices: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prices: %d", resp.StatusCode)
	}
	var ingest serve.TraceResponse
	if err := json.Unmarshal(getBody(t, ts.URL+"/debug/trace?request_id=trace-test-prices"), &ingest); err != nil {
		t.Fatalf("unmarshal ingest trace: %v", err)
	}
	spans := map[string]obs.SpanData{}
	for _, sp := range ingest.Spans {
		spans[sp.Name] = sp
	}
	root, batch := spans["http.prices"], spans["market.append_batch"]
	if root.SpanID == 0 || batch.SpanID == 0 || batch.ParentID != root.SpanID {
		t.Fatalf("market.append_batch is not parented under http.prices: %+v", ingest.Spans)
	}

	// limit caps the returned slice; a malformed limit is a client error.
	var limited serve.TraceResponse
	json.Unmarshal(getBody(t, ts.URL+"/debug/trace?limit=1"), &limited)
	if len(limited.Spans) != 1 {
		t.Fatalf("limit=1 returned %d spans", len(limited.Spans))
	}
	if resp, err := http.Get(ts.URL + "/debug/trace?limit=bogus"); err != nil {
		t.Fatalf("bad-limit request: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("limit=bogus: %d, want 400", resp.StatusCode)
		}
	}

	// Filtering on an unknown request ID is empty but well-formed.
	var empty serve.TraceResponse
	if err := json.Unmarshal(getBody(t, ts.URL+"/debug/trace?request_id=nope"), &empty); err != nil {
		t.Fatalf("unmarshal empty trace: %v", err)
	}
	if len(empty.Spans) != 0 {
		t.Fatalf("unknown request id matched %d spans", len(empty.Spans))
	}
}

// TestSessionAuditTrail: a tracked session crossing a window boundary
// must append an audit record carrying the old and new plans, the cost
// delta and the market version vector the decision saw.
func TestSessionAuditTrail(t *testing.T) {
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

	// Fresh sessions have no decisions yet.
	var sessions []serve.SessionInfo
	json.Unmarshal(getBody(t, ts.URL+"/v1/sessions"), &sessions)
	if len(sessions) != 1 || len(sessions[0].Audit) != 0 {
		t.Fatalf("fresh session audit: %+v, want 1 session with no records", sessions)
	}

	// Cross one window boundary on every shard (flat cheap prices keep the
	// groups alive, so the session re-optimizes rather than dying).
	ticks := flatTicks(window)
	if status, _, body := postJSON(t, ts.URL+"/v1/prices?sync=1", ticks); status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}

	json.Unmarshal(getBody(t, ts.URL+"/v1/sessions"), &sessions)
	if len(sessions) != 1 || len(sessions[0].Audit) == 0 {
		t.Fatalf("session has no audit records after a window boundary: %+v", sessions)
	}
	got := sessions[0]
	if len(got.Audit) != got.Reoptimized+boolToInt(got.Done) {
		// Each re-optimization appends one record; a terminal transition
		// appends one more ("completed"/"recovered_on_demand"/...).
		t.Logf("audit %d records, reoptimized %d, done %v", len(got.Audit), got.Reoptimized, got.Done)
	}
	rec := got.Audit[0]
	if rec.Trigger != "reoptimized" && rec.Trigger != "ran_out_on_demand" {
		t.Fatalf("first audit trigger %q, want a re-planning trigger", rec.Trigger)
	}
	if rec.NewPlan == nil || rec.NewPlanCost <= 0 {
		t.Fatalf("re-planning record has no adopted plan: %+v", rec)
	}
	if rec.OldPlanCost != plan.Estimate.Cost {
		t.Fatalf("old plan cost %v, want the tracked plan's estimate %v", rec.OldPlanCost, plan.Estimate.Cost)
	}
	if rec.CostDelta != rec.NewPlanCost-rec.OldPlanCost {
		t.Fatalf("cost delta %v, want %v", rec.CostDelta, rec.NewPlanCost-rec.OldPlanCost)
	}
	if len(rec.MarketVersions) == 0 {
		t.Fatalf("audit record carries no market version vector: %+v", rec)
	}
	for market, v := range rec.MarketVersions {
		if v < 2 {
			t.Fatalf("market %s version %d at decision time, want the post-ingest version", market, v)
		}
	}
	if rec.Window < 1 || rec.BoundaryHours <= testHours {
		t.Fatalf("audit record window/boundary %d/%v not past the start frontier", rec.Window, rec.BoundaryHours)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestCancelledRequestRecordsLatency is the regression gate for the
// abandoned-request accounting bug: a request the client walks away from
// must still land one observation in the endpoint latency histogram and
// must still end its HTTP span in the trace ring.
func TestCancelledRequestRecordsLatency(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	countSeries := `sompid_request_seconds_count{endpoint="plan"}`
	before := metricValue(t, getBody(t, ts.URL+"/metrics"), countSeries)

	payload, _ := json.Marshal(slowPlanRequest())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	httpReq, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/plan", bytes.NewReader(payload))
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set("X-Request-Id", "cancel-test-1")
	if resp, err := http.DefaultClient.Do(httpReq); err == nil {
		resp.Body.Close()
		t.Fatalf("expected the client to abandon the request, got %d", resp.StatusCode)
	}

	// The handler unwinds at its next cancellation check; the deferred
	// middleware must then observe the latency and end the span.
	var after float64
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		after = metricValue(t, getBody(t, ts.URL+"/metrics"), countSeries)
		if after > before {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if after != before+1 {
		t.Fatalf("plan latency count %v -> %v: the cancelled request was not observed", before, after)
	}

	var tr serve.TraceResponse
	json.Unmarshal(getBody(t, ts.URL+"/debug/trace?request_id=cancel-test-1"), &tr)
	var root *int
	for i, sp := range tr.Spans {
		if sp.Name == "http.plan" {
			root = &i
		}
	}
	if root == nil {
		t.Fatalf("cancelled request left no ended http.plan span: %+v", tr.Spans)
	}
	status := 0
	for _, a := range tr.Spans[*root].Attrs {
		if a.Key == "status" {
			status, _ = strconv.Atoi(a.Value)
		}
	}
	if status != serve.StatusClientClosedRequest && status != http.StatusGatewayTimeout {
		t.Fatalf("cancelled request span recorded status %d, want %d or %d",
			status, serve.StatusClientClosedRequest, http.StatusGatewayTimeout)
	}
}

// sampleLine matches one Prometheus exposition sample.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (.+)$`)

// parseExposition returns series -> value and family -> declared type,
// failing on structural violations (duplicate series, samples without a
// TYPE header, HELP/TYPE disagreement).
func parseExposition(t *testing.T, text string) (map[string]float64, map[string]string) {
	t.Helper()
	series := map[string]float64{}
	types := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := types[f[2]]; dup {
				t.Fatalf("family %s declared twice", f[2])
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line %q", line)
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		name, labels := m[1], m[2]
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("sample %q value: %v", line, err)
		}
		key := name + labels
		if _, dup := series[key]; dup {
			t.Fatalf("duplicate series %s", key)
		}
		series[key] = v
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(name, suffix); f != name && types[f] == "histogram" {
				family = f
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("series %s has no # TYPE header", key)
		}
		// Label values must be well-formed: every quote balanced.
		if labels != "" && strings.Count(strings.ReplaceAll(strings.ReplaceAll(labels, `\\`, ``), `\"`, ``), `"`)%2 != 0 {
			t.Fatalf("series %s has unbalanced label quoting", key)
		}
	}
	return series, types
}

// TestExpositionFormat is the satellite conformance gate: /metrics must
// parse as Prometheus text exposition with no duplicate series, every
// sample under a TYPE header, paired histogram _sum/_count with
// cumulative buckets, and counters that only move up between scrapes.
func TestExpositionFormat(t *testing.T) {
	ts := newTestServer(t, serve.Config{})

	// Generate some traffic so histograms and counters are non-trivial.
	postJSON(t, ts.URL+"/v1/plan", smallPlan(60))
	tick := []serve.PriceTick{{Type: "m1.medium", Zone: "us-east-1a", Prices: []float64{0.05}}}
	postJSON(t, ts.URL+"/v1/prices", tick)

	first, types := parseExposition(t, string(getBody(t, ts.URL+"/metrics")))

	// Histogram families: _count and _sum present, +Inf bucket == _count,
	// buckets cumulative in exposition order.
	for family, typ := range types {
		if typ != "histogram" {
			continue
		}
		found := false
		for key := range first {
			if !strings.HasPrefix(key, family+"_count") {
				continue
			}
			found = true
			labels := strings.TrimPrefix(key, family+"_count")
			sumKey := family + "_sum" + labels
			if _, ok := first[sumKey]; !ok {
				t.Fatalf("histogram %s has %s but no %s", family, key, sumKey)
			}
			infKey := family + "_bucket" + strings.Replace(labels, "}", `,le="+Inf"}`, 1)
			if labels == "" {
				infKey = family + `_bucket{le="+Inf"}`
			}
			if first[infKey] != first[key] {
				t.Fatalf("histogram %s: +Inf bucket %v != count %v", key, first[infKey], first[key])
			}
		}
		if !found {
			t.Fatalf("histogram family %s exposes no _count series", family)
		}
	}

	// Counters are monotone: more traffic, then re-scrape and compare.
	postJSON(t, ts.URL+"/v1/plan", smallPlan(60))
	postJSON(t, ts.URL+"/v1/prices", tick)
	second, _ := parseExposition(t, string(getBody(t, ts.URL+"/metrics")))
	for key, v1 := range first {
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
		}
		isCounter := types[name] == "counter" ||
			(strings.HasSuffix(name, "_count") || strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum"))
		if !isCounter {
			continue
		}
		v2, ok := second[key]
		if !ok {
			t.Fatalf("series %s disappeared between scrapes", key)
		}
		if v2 < v1 {
			t.Fatalf("counter %s went backwards: %v -> %v", key, v1, v2)
		}
	}

	// Spot checks the conformance details the satellites name.
	text := string(getBody(t, ts.URL+"/metrics"))
	for _, want := range []string{
		"# HELP sompid_request_seconds ",
		"# TYPE sompid_request_seconds histogram",
		`sompid_ingest_seconds_count{market="m1.medium/us-east-1a"}`,
		"# TYPE sompid_reopt_evals_saved_total counter",
		"# TYPE sompid_ingest_queue_depth gauge",
		`sompid_ingest_queue_depth{market="m1.medium/us-east-1a"}`,
		"# TYPE sompid_ingest_queue_peak_depth gauge",
		"# TYPE sompid_ingest_batch_size histogram",
		"# TYPE sompid_scheduler_lag_seconds histogram",
		"# TYPE sompid_reopt_deduped_total counter",
		"# TYPE sompid_build_info gauge",
		"# TYPE sompid_uptime_seconds gauge",
		"# TYPE sompid_capture_records_total counter",
		"# TYPE sompid_capture_append_errors_total counter",
		"# TYPE sompid_capture_skipped_total counter",
		"# TYPE sompid_capture_append_seconds histogram",
		"# TYPE sompid_capture_active_segment gauge",
		"# TYPE sompid_wal_appended_bytes_total counter",
		`sompid_wal_appended_bytes_total{record="tick"}`,
		`sompid_wal_appended_bytes_total{record="session"}`,
		"# TYPE sompid_snapshot_bytes gauge",
		"\nsompid_snapshot_bytes 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// Build identity: exactly one sompid_build_info series, value 1, with
	// non-empty version and go_version labels; uptime moves.
	info := regexp.MustCompile(`(?m)^sompid_build_info\{version="([^"]+)",go_version="([^"]+)"\} 1$`).FindStringSubmatch(text)
	if info == nil {
		t.Fatalf("sompid_build_info series malformed in:\n%s", text)
	}
	if info[1] == "" || !strings.HasPrefix(info[2], "go") {
		t.Fatalf("sompid_build_info labels version=%q go_version=%q", info[1], info[2])
	}
	if up := metricValue(t, []byte(text), "sompid_uptime_seconds"); up <= 0 {
		t.Fatalf("sompid_uptime_seconds = %v, want > 0", up)
	}
}
