package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/harness"
	"sompi/internal/opt"
	"sompi/internal/serve"
)

// serveStage is the sompid end-to-end gate: boot a real sompid, ingest
// a price tick, request a plan over HTTP, byte-diff it against the
// library-path optimizer at the same market state, check the trace,
// explain and metrics surfaces, and SIGTERM for the graceful-shutdown
// check. Then the crash stage (SIGKILL a -data-dir sompid mid-session,
// restart, compare) and the sustained batched-ingest stage.
func serveStage(e *env) error {
	p, err := e.startSompid()
	if err != nil {
		return err
	}
	defer p.Kill()
	e.say("sompid at %s", p.URL)

	// Ingest one tick; the market version must move to 2.
	tick := serve.PriceTick{Type: cloud.M1Medium.Name, Zone: cloud.ZoneA, Prices: []float64{0.05, 0.06}}
	var pricesResp serve.PricesResponse
	if err := harness.PostJSON(p.URL+"/v1/prices", tick, &pricesResp); err != nil {
		return fmt.Errorf("ingesting tick: %w", err)
	}
	if pricesResp.MarketVersion != 2 || pricesResp.Ticks != 1 {
		return fmt.Errorf("ingest response %+v, want version 2 after 1 tick", pricesResp)
	}

	req := smokePlan()
	payload, _ := json.Marshal(req)
	served, hdr, err := harness.Post(p.URL+"/v1/plan", payload)
	if err != nil {
		return fmt.Errorf("requesting plan: %w", err)
	}
	planReqID := hdr.Get("X-Request-Id")
	if planReqID == "" {
		return fmt.Errorf("plan response carries no X-Request-Id header")
	}

	// Library path: rebuild the identical market state in-process and
	// render through the same encoding helper. Any divergence — price
	// generation, ingestion, training window, optimizer, JSON layout —
	// breaks the byte diff.
	m := cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), smokeHours, smokeSeed)
	if _, err := m.Append(cloud.MarketKey{Type: tick.Type, Zone: tick.Zone}, tick.Prices); err != nil {
		return err
	}
	profile, ok := app.ByName(req.App)
	if !ok {
		return fmt.Errorf("unknown workload %q", req.App)
	}
	frontier := m.MinDuration()
	lo := math.Max(0, frontier-96)
	res, err := opt.OptimizeContext(context.Background(), req.Config(profile, m.Window(lo, frontier-lo)))
	if err != nil {
		return fmt.Errorf("library optimize: %w", err)
	}
	want, _ := json.Marshal(serve.BuildPlanResponse(m.Version(), res))
	if !bytes.Equal(served, want) {
		return fmt.Errorf("served plan differs from library plan:\n served %s\nlibrary %s", served, want)
	}
	e.say("served plan is byte-identical to the library path")

	// The flight recorder must have the plan request's trace: filtering
	// /debug/trace by the response's request ID has to surface both the
	// HTTP root span and the optimizer spans nested under it.
	if err := checkTrace(e, p.URL, planReqID); err != nil {
		return err
	}
	// ?explain=1 must return the same plan plus a populated decision
	// trail, without poisoning the plan cache (the explain body differs
	// from the cached byte-identical plan).
	if err := checkExplain(e, p.URL, payload, served); err != nil {
		return err
	}
	// The endpoint latency histograms must be live on /metrics.
	if err := checkMetrics(e, p.URL); err != nil {
		return err
	}

	// Graceful shutdown: SIGTERM must drain and exit cleanly.
	if err := p.Stop(); err != nil {
		return err
	}
	e.say("graceful shutdown ok")

	if err := checkCrashRecovery(e); err != nil {
		return err
	}
	return checkSustainedIngest(e)
}

// marketState extracts the durable market identity from /metrics: the
// composite version and the full per-shard version vector.
func marketState(base string) (string, error) {
	body, err := harness.Get(base + "/metrics")
	if err != nil {
		return "", err
	}
	var lines []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "sompid_market_version ") ||
			strings.HasPrefix(line, "sompid_shard_version{") {
			lines = append(lines, line)
		}
	}
	if len(lines) < 2 {
		return "", fmt.Errorf("/metrics has no shard version vector")
	}
	return strings.Join(lines, "\n"), nil
}

// flatTicks is the deterministic all-shard feed: hours of flat 0.05
// samples (12 per hour) on every shard of the smoke market — below every
// plausible bid, so tracked sessions survive their windows.
func flatTicks(hours float64) []serve.PriceTick {
	samples := make([]float64, int(hours*12))
	for i := range samples {
		samples[i] = 0.05
	}
	var ticks []serve.PriceTick
	for _, key := range smokeKeys() {
		ticks = append(ticks, serve.PriceTick{Type: key.Type, Zone: key.Zone, Prices: samples})
	}
	return ticks
}

// smokeKeys lists the smoke market's twelve shards.
func smokeKeys() []cloud.MarketKey {
	var keys []cloud.MarketKey
	for _, ty := range cloud.DefaultCatalog() {
		for _, z := range cloud.DefaultZones() {
			keys = append(keys, cloud.MarketKey{Type: ty.Name, Zone: z})
		}
	}
	return keys
}

// checkCrashRecovery is the durability stage: boot with -data-dir, track
// a session, ingest past its window boundary so it re-optimizes, capture
// the externally observable state, SIGKILL the process mid-flight and
// restart it from the same directory. Recovery must reproduce the
// version vector, the session listing (plans, audit log, clocks) and
// the served plan bytes exactly.
func checkCrashRecovery(e *env) error {
	dataDir := e.dir("data")
	// -window 2 so two hours of ticks cross a re-optimization boundary.
	flags := []string{"-data-dir", dataDir, "-window", "2"}

	p, err := e.startSompid(flags...)
	if err != nil {
		return err
	}
	defer p.Kill()

	track := smokePlan()
	track.Track = true
	var tracked serve.PlanResponse
	if err := harness.PostJSON(p.URL+"/v1/plan", track, &tracked); err != nil {
		return fmt.Errorf("tracking session: %w", err)
	}
	if tracked.SessionID == "" {
		return fmt.Errorf("tracked plan returned no session id")
	}

	// Two hours of flat ticks on every shard: crosses the boundary, so
	// the session re-optimizes and its transition lands in the WAL.
	// ?sync=1: re-optimization is asynchronous, and the stage snapshots
	// the session listing next — drain so the boundary's re-opt is in it.
	var pr serve.PricesResponse
	if err := harness.PostJSON(p.URL+"/v1/prices?sync=1", flatTicks(2), &pr); err != nil {
		return fmt.Errorf("ingesting ticks: %w", err)
	}
	if pr.Reoptimized < 1 {
		return fmt.Errorf("session never re-optimized before the crash: %+v", pr)
	}

	versionsBefore, err := marketState(p.URL)
	if err != nil {
		return err
	}
	sessionsBefore, err := harness.Get(p.URL + "/v1/sessions")
	if err != nil {
		return err
	}
	// An untracked plan at the current market: pure function of market
	// state, so byte-equality after restart proves the recovered prices
	// feed the optimizer identically.
	planPayload, _ := json.Marshal(smokePlan())
	planBefore, _, err := harness.Post(p.URL+"/v1/plan", planPayload)
	if err != nil {
		return fmt.Errorf("pre-crash plan: %w", err)
	}

	// SIGKILL: no drain, no shutdown snapshot — the data dir holds only
	// what the WAL fsynced.
	p.Kill()
	e.say("SIGKILLed sompid mid-session")

	p2, err := e.startSompid(flags...)
	if err != nil {
		return fmt.Errorf("restarting from %s: %w", dataDir, err)
	}
	defer p2.Kill()

	versionsAfter, err := marketState(p2.URL)
	if err != nil {
		return err
	}
	if versionsBefore != versionsAfter {
		return fmt.Errorf("market version vector did not survive the crash:\nbefore:\n%s\nafter:\n%s", versionsBefore, versionsAfter)
	}
	sessionsAfter, err := harness.Get(p2.URL + "/v1/sessions")
	if err != nil {
		return err
	}
	if !bytes.Equal(sessionsBefore, sessionsAfter) {
		return fmt.Errorf("/v1/sessions did not survive the crash:\nbefore: %s\nafter:  %s", sessionsBefore, sessionsAfter)
	}
	planAfter, _, err := harness.Post(p2.URL+"/v1/plan", planPayload)
	if err != nil {
		return fmt.Errorf("post-crash plan: %w", err)
	}
	if !bytes.Equal(planBefore, planAfter) {
		return fmt.Errorf("served plan changed across the crash:\nbefore: %s\nafter:  %s", planBefore, planAfter)
	}

	// The recovered daemon must say so on /metrics: a nonzero recovery
	// duration carried over from replaying the first life's WAL.
	mx, err := harness.Get(p2.URL + "/metrics")
	if err != nil {
		return err
	}
	if secs, err := harness.MetricValue(string(mx), "sompid_recovery_seconds"); err != nil || secs == 0 {
		return fmt.Errorf("/metrics reports no recovery ran after the restart (sompid_recovery_seconds %v, %v)", secs, err)
	}

	// Clean SIGTERM so the second boot also exercises the shutdown
	// snapshot path on a recovered store.
	if err := p2.Stop(); err != nil {
		return fmt.Errorf("recovered sompid: %w", err)
	}
	e.say("crash recovery restored the version vector, sessions and plan bytes")
	return nil
}

// checkSustainedIngest is the batched-ingest stage: boot sompid with a
// small -ingest-queue and a worker pool, track identical sessions plus a
// distinct one, firehose concurrent multi-shard NDJSON across two
// window boundaries, drain, and gate the ingest observability families —
// the high-water mark of batches waiting on one shard must respect that
// ceiling, the scheduler-lag p99 must be sane, and the identical
// sessions must have coalesced at least one optimizer run.
func checkSustainedIngest(e *env) error {
	const queueCap = 64
	p, err := e.startSompid("-window", "2", "-ingest-queue", fmt.Sprint(queueCap), "-reopt-workers", "4")
	if err != nil {
		return err
	}
	defer p.Kill()

	track := smokePlan()
	track.Track = true
	for i := 0; i < 2; i++ { // the identical pair that must dedup
		if err := harness.PostJSON(p.URL+"/v1/plan", track, nil); err != nil {
			return fmt.Errorf("tracking session %d: %w", i, err)
		}
	}
	other := track
	other.DeadlineHours = 90
	if err := harness.PostJSON(p.URL+"/v1/plan", other, nil); err != nil {
		return fmt.Errorf("tracking distinct session: %w", err)
	}

	// 4.5 hours of flat prices per shard — two T_m boundaries — fed as
	// concurrent NDJSON streams, several requests per shard.
	keys := smokeKeys()
	const rounds = 9 // 0.5h per round
	samples := strings.TrimSuffix(strings.Repeat("0.05,", 6), ",")
	errs := make(chan error, len(keys))
	for _, key := range keys {
		go func(key cloud.MarketKey) {
			body := fmt.Sprintf("{\"type\":%q,\"zone\":%q,\"prices\":[%s]}\n", key.Type, key.Zone, samples)
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(p.URL+"/v1/prices", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					r-- // backpressure is a legal answer; retry the round
					time.Sleep(20 * time.Millisecond)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("firehose on %v: status %d", key, resp.StatusCode)
					return
				}
			}
			errs <- nil
		}(key)
	}
	for range keys {
		if err := <-errs; err != nil {
			return err
		}
	}
	if err := harness.PostJSON(p.URL+"/v1/prices?sync=1", []serve.PriceTick{}, nil); err != nil {
		return fmt.Errorf("draining scheduler: %w", err)
	}

	mx, err := harness.Get(p.URL + "/metrics")
	if err != nil {
		return err
	}
	text := string(mx)
	peak, err := harness.MetricValue(text, "sompid_ingest_queue_peak_depth")
	if err != nil {
		return err
	}
	if peak > queueCap {
		return fmt.Errorf("ingest queue peak depth %v exceeds its configured ceiling %d", peak, queueCap)
	}
	lagP99, err := harness.HistogramQuantile(text, "sompid_scheduler_lag_seconds", 0.99)
	if err != nil {
		return err
	}
	// Loose by design: the gate catches a scheduler that wedges or lags
	// by whole seconds, not micro-regressions.
	if lagP99 > 30 {
		return fmt.Errorf("scheduler lag p99 bucket %vs, want under 30s", lagP99)
	}
	deduped, err := harness.MetricValue(text, "sompid_reopt_deduped_total")
	if err != nil {
		return err
	}
	if deduped < 1 {
		return fmt.Errorf("identical tracked sessions never coalesced an optimizer run (reopt_deduped_total %v)", deduped)
	}
	reopts, err := harness.MetricValue(text, "sompid_reoptimizations_total")
	if err != nil {
		return err
	}
	if reopts < 6 { // 3 sessions x 2 boundaries
		return fmt.Errorf("only %v re-optimizations across 3 sessions and 2 boundaries", reopts)
	}

	if err := p.Stop(); err != nil {
		return fmt.Errorf("after the sustained-ingest stage: %w", err)
	}
	e.say("sustained ingest ok (queue peak %.0f/%d, scheduler lag p99 <= %vs, %0.f deduped re-opts)",
		peak, queueCap, lagP99, deduped)
	return nil
}

// checkTrace pulls the span ring filtered to the plan request's ID and
// verifies the HTTP root span and the optimizer stage spans are there.
func checkTrace(e *env, base, reqID string) error {
	var tr serve.TraceResponse
	if err := harness.GetJSON(base+"/debug/trace?request_id="+reqID, &tr); err != nil {
		return fmt.Errorf("/debug/trace: %w", err)
	}
	if tr.Total == 0 || len(tr.Spans) == 0 {
		return fmt.Errorf("/debug/trace has no spans for request %s", reqID)
	}
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.TraceID != reqID {
			return fmt.Errorf("span %q has trace %q, want %q", sp.Name, sp.TraceID, reqID)
		}
		if sp.SpanID == 0 || sp.DurationNs < 0 {
			return fmt.Errorf("span %q malformed: %+v", sp.Name, sp)
		}
		names[sp.Name] = true
	}
	for _, want := range []string{"http.plan", "opt.optimize", "opt.subset_search"} {
		if !names[want] {
			return fmt.Errorf("trace for %s is missing span %q (got %v)", reqID, want, names)
		}
	}
	e.say("/debug/trace has %d spans for the plan request", len(tr.Spans))
	return nil
}

// checkExplain re-requests the plan with ?explain=1 and verifies the
// trail is populated while the plan itself is unchanged.
func checkExplain(e *env, base string, payload, served []byte) error {
	body, _, err := harness.Post(base+"/v1/plan?explain=1", payload)
	if err != nil {
		return fmt.Errorf("requesting explained plan: %w", err)
	}
	var pr serve.PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return fmt.Errorf("explained plan is not valid JSON: %w", err)
	}
	ex := pr.Explain
	if ex == nil {
		return fmt.Errorf("?explain=1 returned no explain payload: %s", body)
	}
	if len(ex.Candidates) == 0 || len(ex.Stages) == 0 || len(ex.Selected) == 0 {
		return fmt.Errorf("explain trail incomplete: %d candidates, %d stages, %d selected",
			len(ex.Candidates), len(ex.Stages), len(ex.Selected))
	}
	// Stripping the trail must give back the plan the cached path served —
	// explain observes the decision, never perturbs it. Search-effort
	// counters are normalized first: the explained request bypasses the
	// plan cache and recomputes against the server's now-warm reuse cache,
	// which legitimately changes Evals/Pruned/SavedEvals but never the plan.
	var servedPR serve.PlanResponse
	if err := json.Unmarshal(served, &servedPR); err != nil {
		return fmt.Errorf("served plan is not valid JSON: %w", err)
	}
	pr.Explain = nil
	pr.Evals, pr.Pruned, pr.SavedEvals = servedPR.Evals, servedPR.Pruned, servedPR.SavedEvals
	stripped, _ := json.Marshal(pr)
	reserved, _ := json.Marshal(servedPR)
	if !bytes.Equal(stripped, reserved) {
		return fmt.Errorf("explained plan differs from served plan:\nexplain %s\n served %s", stripped, reserved)
	}
	e.say("?explain=1 returned %d candidate decisions over %d stages, plan unchanged",
		len(ex.Candidates), len(ex.Stages))
	return nil
}

// checkMetrics verifies the request-latency histogram is exposed with
// its TYPE header and has recorded the plan requests.
func checkMetrics(e *env, base string) error {
	body, err := harness.Get(base + "/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{
		"# TYPE sompid_request_seconds histogram",
		`sompid_request_seconds_count{endpoint="plan"}`,
		`sompid_request_seconds_bucket{endpoint="plan",le="+Inf"}`,
	} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("/metrics is missing %q", want)
		}
	}
	e.say("request latency histograms are exposed")
	return nil
}
