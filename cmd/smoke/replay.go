package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"

	"sompi/internal/cloud"
	"sompi/internal/harness"
	"sompi/internal/serve"
)

// replayStage is the capture/replay end-to-end gate. Four steps against
// real processes:
//
//  1. Capture: boot sompid -capture-log, drive mixed v1 traffic (plans
//     with a cache hit, an explained plan, a synchronous ingest, an
//     evaluate, a seeded Monte Carlo, the GET listings), SIGTERM, and
//     assert the log sealed into complete segments.
//  2. Twin-diff: boot an in-memory sompid and a -data-dir sompid at the
//     same market seed, replay the captured log against both through
//     the sompi-replay binary under a passing rules file, and require
//     exit 0 with zero plan-byte diffs and zero field diffs.
//  3. Gate demo: re-run the same replay under an impossible latency
//     budget and require the distinct rules exit code — the regression
//     gate must actually be able to fail.
//  4. Sustained load: synthesize a mixed plan/ingest/listing capture
//     with the harness writer, replay it full speed at concurrency 4
//     against a fresh sompid, and require exit 0 with nonzero QPS and
//     per-endpoint p99 in the -out report.
func replayStage(e *env) error {
	capDir := e.dir("capture")
	captured, err := captureStep(e, capDir)
	if err != nil {
		return fmt.Errorf("capture step: %w", err)
	}
	if err := twinDiffStep(e, capDir, captured); err != nil {
		return fmt.Errorf("twin-diff step: %w", err)
	}
	if err := sustainedLoadStep(e); err != nil {
		return fmt.Errorf("sustained-load step: %w", err)
	}
	return nil
}

// captureStep boots a capturing sompid, drives one of everything, and
// verifies SIGTERM seals the log into complete segments.
func captureStep(e *env, capDir string) (int, error) {
	p, err := e.startSompid("-capture-log", capDir, "-capture-segment", "4")
	if err != nil {
		return 0, err
	}
	defer p.Kill()

	plan, _ := json.Marshal(smokePlan())
	mc, _ := json.Marshal(serve.MonteCarloRequest{
		App: "BT", DeadlineHours: 60, Runs: 4, Seed: 11, Workers: 1,
	})
	tick, _ := json.Marshal([]serve.PriceTick{{
		Type: cloud.M1Medium.Name, Zone: cloud.ZoneA, Prices: []float64{0.05, 0.06},
	}})

	// The first plan request doubles as the evaluate step's input: its
	// served plan is re-posted to /v1/evaluate, so the capture carries a
	// structurally valid evaluate body.
	var pr serve.PlanResponse
	if err := harness.PostJSON(p.URL+"/v1/plan", smokePlan(), &pr); err != nil {
		return 0, fmt.Errorf("first plan: %w", err)
	}
	eval, _ := json.Marshal(serve.EvaluateRequest{App: "BT", Plan: pr.Plan})

	traffic := []struct {
		path string
		body []byte // nil = GET
	}{
		{"/v1/plan", plan}, // identical: the twin replay must see a cache hit
		{"/v1/plan?explain=1", plan},
		{"/v1/prices?sync=1", tick},
		{"/v1/evaluate", eval},
		{"/v1/montecarlo", mc},
		{"/v1/sessions", nil},
		{"/v1/strategies", nil},
	}
	for i, tr := range traffic {
		if tr.body == nil {
			_, err = harness.Get(p.URL + tr.path)
		} else {
			_, _, err = harness.Post(p.URL+tr.path, tr.body)
		}
		if err != nil {
			return 0, fmt.Errorf("traffic %d: %w", i, err)
		}
	}

	if err := p.Stop(); err != nil {
		return 0, err
	}

	// SIGTERM must have sealed everything: only final-named segments.
	entries, err := os.ReadDir(capDir)
	if err != nil {
		return 0, err
	}
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".part") {
			return 0, fmt.Errorf("capture log still has an unsealed segment %s after SIGTERM", ent.Name())
		}
	}
	segments := len(entries)
	records, err := harness.Load(capDir)
	if err != nil {
		return 0, err
	}
	requests := len(traffic) + 1 // the first plan request is captured too
	if len(records) != requests {
		return 0, fmt.Errorf("captured %d records for %d requests", len(records), requests)
	}
	if segments < 2 {
		return 0, fmt.Errorf("%d requests at -capture-segment 4 produced %d segments, want rotation", requests, segments)
	}
	for i, rec := range records {
		if rec.Seq != i || rec.RequestID == "" || rec.Status != http.StatusOK {
			return 0, fmt.Errorf("capture record %d malformed: %+v", i, rec)
		}
	}
	e.say("captured %d records across %d sealed segments", len(records), segments)
	return len(records), nil
}

// twinDiffStep replays the capture against an in-memory and a durable
// sompid at the same market seed: rules must pass with zero diffs, and
// an impossible budget must trip the distinct rules exit code.
func twinDiffStep(e *env, capDir string, captured int) error {
	mem, err := e.startSompid()
	if err != nil {
		return err
	}
	defer mem.Kill()
	disk, err := e.startSompid("-data-dir", e.dir("twin-data"))
	if err != nil {
		return err
	}
	defer disk.Kill()

	// The passing gate: twin equivalence (zero plan-byte diffs, zero
	// field diffs), a latency budget loose enough for CI hardware, and a
	// hit-rate floor the repeated identical plan must clear. Both twins
	// serve every request locally, so the per-target floors simply pin
	// the global one per name — and prove the per-target override path
	// (the one a cluster target with forwarded requests relies on, where
	// proxied plans land in the owner's cache, not the entry node's)
	// stays wired through the rules file.
	rules := e.dir("rules.json")
	if err := os.WriteFile(rules, []byte(`{
  "max_plan_diffs": 0,
  "max_field_diffs": 0,
  "max_transport_errors": 0,
  "min_cache_hit_rate": 0.1,
  "targets": {
    "mem":  {"min_cache_hit_rate": 0.1},
    "disk": {"min_cache_hit_rate": 0.1}
  },
  "endpoints": {
    "plan":       {"p99_ms": 60000, "max_error_rate": 0},
    "prices":     {"p99_ms": 60000, "max_error_rate": 0},
    "montecarlo": {"p99_ms": 60000, "max_error_rate": 0}
  }
}
`), 0o644); err != nil {
		return err
	}
	rep, out, err := replayOK(e, "-log", capDir,
		"-target", "mem="+mem.URL, "-target", "disk="+disk.URL, "-rules", rules)
	if err != nil {
		return err
	}
	if rep.Records != captured {
		return fmt.Errorf("report covers %d records, capture had %d", rep.Records, captured)
	}
	if rep.PlanDiffs != 0 || rep.FieldDiffs != 0 || rep.TransportErrors != 0 {
		return fmt.Errorf("twins diverged: %d plan diffs, %d field diffs, %d transport errors\n%s",
			rep.PlanDiffs, rep.FieldDiffs, rep.TransportErrors, out)
	}
	hit := false
	for _, t := range rep.Targets {
		if rate, ok := t.HitRate(); ok && rate > 0 {
			hit = true
		}
	}
	if !hit {
		return fmt.Errorf("replayed identical plans produced no cache hit on either twin:\n%s", out)
	}
	e.say("twin-diff mem vs disk over %d records: 0 plan diffs, 0 field diffs, rules passed", rep.Records)

	// The gate must be able to fail: a sub-microsecond p99 budget no
	// real replay can meet has to exit with the rules code, nothing else.
	badRules := e.dir("bad-rules.json")
	if err := os.WriteFile(badRules, []byte(`{"endpoints":{"plan":{"p99_ms":0.0001}}}`), 0o644); err != nil {
		return err
	}
	out, code, err := runReplay(e, "-log", capDir,
		"-target", "mem="+mem.URL, "-target", "disk="+disk.URL, "-rules", badRules)
	if err != nil {
		return err
	}
	if code != harness.ExitRules {
		return fmt.Errorf("violated rules file exited %d, want %d:\n%s", code, harness.ExitRules, out)
	}
	if !strings.Contains(out, "RULE VIOLATION p99_ms[plan]") {
		return fmt.Errorf("violation output names no p99_ms[plan] rule:\n%s", out)
	}
	e.say("impossible latency budget tripped exit code %d as designed", harness.ExitRules)

	if err := mem.Stop(); err != nil {
		return err
	}
	return disk.Stop()
}

// sustainedLoadStep synthesizes a mixed-load capture, replays it full
// speed at concurrency 4 against one sompid, and requires the report to
// carry real throughput: nonzero overall QPS and per-endpoint p99.
func sustainedLoadStep(e *env) error {
	loadDir := e.dir("load-capture")
	w, err := harness.OpenWriter(loadDir, 256)
	if err != nil {
		return err
	}
	var plans [][]byte
	for _, dl := range []float64{60, 72, 90} {
		req := smokePlan()
		req.DeadlineHours = dl
		b, _ := json.Marshal(req)
		plans = append(plans, b)
	}
	tick, _ := json.Marshal([]serve.PriceTick{{
		Type: cloud.M1Small.Name, Zone: cloud.ZoneB, Prices: []float64{0.1},
	}})
	const rounds = 40
	for i := 0; i < rounds; i++ {
		recs := []harness.Record{
			{Endpoint: "plan", Method: "POST", Path: "/v1/plan", Body: string(plans[i%len(plans)]), Status: 200},
			{Endpoint: "prices", Method: "POST", Path: "/v1/prices", Body: string(tick), Status: 200},
		}
		if i%4 == 0 {
			recs = append(recs, harness.Record{Endpoint: "strategies", Method: "GET", Path: "/v1/strategies", Status: 200})
		}
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				return err
			}
		}
	}
	if err := w.Close(); err != nil {
		return err
	}

	p, err := e.startSompid()
	if err != nil {
		return err
	}
	defer p.Kill()

	rep, out, err := replayOK(e, "-log", loadDir, "-target", "mem="+p.URL, "-concurrency", "4")
	if err != nil {
		return err
	}
	if rep.Records == 0 || rep.QPS() <= 0 {
		return fmt.Errorf("replay report carries no throughput:\n%s", out)
	}
	eps := rep.Targets[0].Endpoints
	for _, name := range []string{"plan", "prices"} {
		if ep, ok := eps[name]; !ok || ep.QPS <= 0 || ep.P99MS <= 0 {
			return fmt.Errorf("replay report missing %s throughput:\n%s", name, out)
		}
	}
	e.say("sustained load %d records at %.0f qps (plan p99 %.1fms, ingest p99 %.1fms)",
		rep.Records, rep.QPS(), eps["plan"].P99MS, eps["prices"].P99MS)
	return p.Stop()
}

// runReplay executes the sompi-replay binary, returning its combined
// output and exit code (only unexpected failures are errors).
func runReplay(e *env, args ...string) (string, int, error) {
	bin, err := e.bin("./cmd/sompi-replay")
	if err != nil {
		return "", -1, err
	}
	out, err := exec.Command(bin, args...).CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0, nil
	case errors.As(err, &exit):
		return string(out), exit.ExitCode(), nil
	}
	return string(out), -1, fmt.Errorf("running sompi-replay: %w\n%s", err, out)
}

// replayOK runs sompi-replay with -out, requires exit 0, and returns the
// decoded report alongside the run's output.
func replayOK(e *env, args ...string) (*harness.Report, string, error) {
	report := e.dir("report.json")
	out, code, err := runReplay(e, append(args, "-out", report)...)
	if err != nil {
		return nil, out, err
	}
	if code != harness.ExitOK {
		return nil, out, fmt.Errorf("sompi-replay exited %d, want %d:\n%s", code, harness.ExitOK, out)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		return nil, out, err
	}
	var rep harness.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, out, fmt.Errorf("report.json: %w", err)
	}
	if len(rep.Targets) == 0 {
		return nil, out, fmt.Errorf("report.json names no target:\n%s", out)
	}
	return &rep, out, nil
}
