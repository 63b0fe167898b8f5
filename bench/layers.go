package main

import (
	"fmt"
	"os"
	"time"
)

// Shares of a driver trace run's seconds: a shorter child-process run
// for the scrape-sourced metrics, the in-process ladder, and the rest
// for the probes (whose own budgets add up to about three seconds at
// scale 1).
const (
	traceChildShare  = 0.4
	traceLadderShare = 0.2
)

// tracedRun is a driver `--trace 1` run: every per-layer metric of the
// catalog for one workload, and the span file of its traced pass. The
// returned runResult is the shortened child-process run, whose
// correctness checks are the run's verdict.
func (e *env) tracedRun(name string, seed uint64, seconds float64) (map[string]float64, *runResult, error) {
	res, err := e.run(name, seed, seconds*traceChildShare, 1)
	if err != nil {
		return nil, nil, err
	}
	lad, err := e.ladderFor(res, time.Duration(seconds*traceLadderShare*float64(time.Second)))
	if err != nil {
		return nil, nil, err
	}
	layers := make(map[string]float64)
	for k, v := range res.Layer {
		layers[k] = v
	}
	for k, v := range lad.layer {
		layers[k] = v
	}
	if _, err := e.runProbes(seed, seconds/runSeconds, layers); err != nil {
		return nil, nil, err
	}
	return layers, res, nil
}

// maxTwinExcess is by how much of the in-process request time the lower
// rungs' sums may outrun the rungs above them before the suite fails.
const maxTwinExcess = 0.10

// ladderFor runs a finished run's traced pass and writes its span file.
func (e *env) ladderFor(res *runResult, budget time.Duration) (*ladderResult, error) {
	lad, err := e.runLadder(res.Workload, res.Seed, res.warm, ladderRecords(res.Workload, res.Seed, res.firstPass), budget)
	if err != nil {
		return nil, fmt.Errorf("%s traced pass: %w", res.Workload, err)
	}
	path, err := e.writeTrace(lad)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s traced pass: %d records, %.1f ms of requests; self times before the clip sum to %.1f%% of that; the layer calls account for %.1f%% of the handler's time; spans in %s\n",
		res.Workload, lad.Records, float64(lad.RequestNs)/1e6, 100+lad.layer["harness.ladder_excess_pct"], lad.layer["harness.layer_cover_pct"], path)
	return lad, nil
}

// holds reports whether the ladder holds together. A span file's self
// times sum to the request time by construction (every rung is clipped
// to the one above), so the sum is judged before the clip: with a rung
// that outran the one above it given no negative self time, the rungs as
// measured add up to request_ns + excess_ns, and that must be within
// 10 % of request_ns. An excess means a twin did work the rung above it
// did not — a layer twin that does not mirror the handler. How much of
// the handler's time the layer calls account for is reported beside it;
// the handler's own share of the work (decode, queue, encode) is a
// finding, not a failure. The suite fails on it; a driver run reports
// harness.ladder_excess_pct and leaves the verdict to sompid's answers.
func (l *ladderResult) holds() error {
	if excess := l.layer["harness.ladder_excess_pct"]; excess > 100*maxTwinExcess {
		return fmt.Errorf("%s traced pass: the lower rungs outran the rungs above them by %d ns, %.1f%% of %d ns of requests", l.Workload, l.ExcessNs, excess, l.RequestNs)
	}
	return nil
}

// suiteLayers fills the ledger's per-layer section: the traced pass of
// every workload that ran, the probes once, and for every scrape- or
// harness-sourced metric the value from the workload it belongs to.
func (e *env) suiteLayers(l *ledger) error {
	traced := make(map[string]map[string]float64)
	for _, r := range l.Runs {
		lad, err := e.ladderFor(r, time.Duration(l.Seconds*traceChildShare*float64(time.Second)))
		if err == nil {
			err = lad.holds()
		}
		if err != nil {
			return err
		}
		traced[r.Workload] = lad.layer
		for k, v := range lad.layer {
			r.Layer[k] = v
		}
	}
	probes := make(map[string]float64)
	skipped, err := e.runProbes(l.Seed, 2*l.Seconds/runSeconds, probes)
	if err != nil {
		return err
	}
	l.Skipped = append(l.Skipped, skipped...)
	for _, m := range layerCatalog {
		switch {
		case m.source == "probe":
			l.PerLayer[m.Name] = probes[m.Name]
		case l.find(m.home) != nil:
			l.PerLayer[m.Name] = l.find(m.home).Layer[m.Name]
		default:
			l.Skipped = append(l.Skipped, skippedGate{m.Name, "its workload " + m.home + " did not run"})
		}
	}
	return nil
}

// scrapeLayers derives the scrape-sourced per-layer metrics from the
// /metrics delta around the measured windows (d), the closing scrape
// (gauges) and the operations completed.
func scrapeLayers(res *runResult, d, after sample, ops float64) {
	L := res.Layer
	for _, ep := range []string{epPlan, epPrices, epEvaluate, epMonteCarlo} {
		L["serve.request_busy_s."+ep] = d.get("sompid_request_seconds_sum", `endpoint="`+ep+`"`)
	}
	L["serve.ingest_busy_s"] = d.sum("sompid_ingest_seconds_sum")
	hits, misses := d.get("sompid_plan_cache_hits_total", ""), d.get("sompid_plan_cache_misses_total", "")
	if hits+misses > 0 {
		L["serve.plan_cache_hit_rate"] = hits / (hits + misses)
	}
	if reopts := d.get("sompid_reoptimizations_total", ""); reopts > 0 {
		L["serve.reopt_dedup_share"] = d.get("sompid_reopt_deduped_total", "") / reopts
	}
	evals, saved := d.get("sompid_optimizer_evals_total", ""), d.get("sompid_reopt_evals_saved_total", "")
	if evals+saved > 0 {
		L["serve.evals_saved_share"] = saved / (evals + saved)
	}
	L["serve.ingest_batch_mean"] = d.mean("sompid_ingest_batch_size")
	L["serve.ingest_queue_peak"] = after.get("sompid_ingest_queue_peak_depth", "")
	L["serve.scheduler_lag_mean_ms"] = d.mean("sompid_scheduler_lag_seconds") * 1000
	L["serve.scheduler_lag_p99_s"] = d.quantile("sompid_scheduler_lag_seconds", "", 0.99)
	L["serve.backpressure_429"] = res.Counts["refused_429"]

	L["store.fsync_busy_s"] = d.get("sompid_wal_fsync_seconds_sum", "")
	if ops > 0 {
		L["store.fsyncs_per_op"] = d.get("sompid_wal_fsync_seconds_count", "") / ops
		L["store.wal_records_per_op"] = d.get("sompid_wal_appended_records_total", "") / ops
	}
	L["store.snapshots"] = d.get("sompid_snapshots_total", "")

	fwdPrices := d.get("sompid_cluster_forwarded_total", `endpoint="prices"`)
	fwdPlans := d.get("sompid_cluster_forwarded_total", `endpoint="plan"`)
	L["cluster.proxied_plans"] = fwdPlans
	// A forwarded sub-request is itself a request on the peer: take those
	// out to get back to what the clients sent.
	if feeds := d.get("sompid_requests_total", `endpoint="prices"`) - fwdPrices; feeds > 0 {
		L["cluster.forwarded_share"] = fwdPrices / feeds
	}
	// Client latency minus the server's own request time, per request:
	// the connection, both HTTP stacks and the generator itself. With
	// forwarding the peer's time sits inside the entry node's and the sum
	// over nodes would count it twice, so the cluster run reports none.
	if reqs := d.sum("sompid_requests_total"); reqs > 0 && fwdPrices+fwdPlans == 0 {
		L["harness.client_overhead_us"] = (res.Counts["client_busy_s"] - d.sum("sompid_request_seconds_sum")) / reqs * 1e6
	}
}
