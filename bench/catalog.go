package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
)

// The metric catalog: every name the benchmark reports, once. The
// driver-facing BENCHMARK.json at the repository root is generated from
// it (bench -manifest) and a test keeps the two identical.

// workloadInfo is one BENCHMARK.json workload.
type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadCatalog = []workloadInfo{
	{wlPlanMiss, "closed loop, 2 clients: unique unrestricted default-knob plans on a static in-memory market; opt, model and failure do nearly all the work, store, ingest and the plan cache none"},
	{wlIngest, "closed loop, 2 clients: NDJSON 12-shard rounds and one-shard backfills into a durable sompid with no sessions; tick decode, shard queues, cloud append and the batch WAL path work, opt does not"},
	{wlBoundary, "closed loop, 1 driver: 384 tracked sessions per pass drained across T_m boundaries by synchronous feeds; scheduler, single-flight dedup, warm re-opt and per-session single WAL appends do the work"},
	{wlMixed, "open loop, 125 rec/s on 2 connections: Zipf plans over 600 requests (more than the cache) invalidated by one-shard ticks, plus evaluate, listings, named strategies, Monte Carlo; the end-to-end row"},
	{wlCluster, "open loop, mixed-replay's capture and schedule sent to node a of a 2-node cluster: ticks forward, restricted plans proxy, the WAL ships; the difference to mixed-replay is the price of the hop"},
}

// e2eMetric is one end-to-end metric of BENCHMARK.json. Every one is
// reported, non-zero, by every workload. The bounds are what the
// builder's machine — two shared cores whose speed wanders by ±15 %
// over minutes — lets ten runs repeat within; README.md
// has the measured spreads.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	what   string
}

var e2eCatalog = []e2eMetric{
	{"setup_s", "s", "lower", 0.25, "exec of sompid (both nodes for the cluster) to healthy to warm-up done; median over the run's set-ups (one per pass, at least five); compile time excluded"},
	{"throughput_ops_s", "ops/s", "higher", 0.25, "plans, feeds or re-optimizations per measured second over all passes; open loop: records answered correctly within their limit, per second of schedule"},
	{"op_p50_ms", "ms", "lower", 0.25, "median latency of the workload's operation over every sample of the run — plan, feed, boundary drain; open loop: plans, from the due time"},
	{"cpu_ms_per_op", "ms", "lower", 0.25, "user+system CPU of every sompid child during the measured windows over the operations completed in them"},
	{"rss_peak_mb", "MB", "lower", 0.25, "largest resident-set high-water mark among the sompid children"},
}

// opName is what each workload's operation — the thing op_p50_ms and
// harness.op_p95_ms time — is called in the issue's per-endpoint names.
var opName = map[string]string{
	wlPlanMiss: "plan", wlIngest: "prices", wlBoundary: "boundary_drain", wlMixed: "plan", wlCluster: "plan",
}

// issueName is the issue's name for a metric the ledger reports under
// another one, "" if it has none. One measurement has one key; the
// report prints this name beside it.
func issueName(workload, metric string) string {
	switch metric {
	case "op_p50_ms":
		return opName[workload] + "_p50_ms"
	case "harness.op_p95_ms":
		if opName[workload] == "plan" {
			return "plan_p95_ms"
		}
	case "harness.error_rate":
		return "error_rate"
	case "harness.slo_miss_rate":
		if openLoopWorkload(workload) {
			return "slo_miss_rate"
		}
	}
	return ""
}

// layerMetric is one per-layer metric: where it is measured and which
// end-to-end metric it should move, on which workload.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	source string // probe, scrape, trace or harness
	home   string // the workload whose run gives the suite's value ("" for a probe)
	moves  string // end-to-end metric @ workload it should move
	not    string // workload on which it should move nothing
}

var layerCatalog = []layerMetric{
	// opt: the κ-subset search.
	{"opt.optimize_cold_ms", "ms", "lower", "probe", "", "op_p50_ms, throughput_ops_s @ plan-miss", wlIngest},
	{"opt.optimize_reuse_ms", "ms", "lower", "probe", "", "op_p50_ms @ mixed-replay (misses after a one-shard tick)", wlIngest},
	{"opt.warm_reopt_ms", "ms", "lower", "probe", "", "op_p50_ms, throughput_ops_s @ boundary-reopt", wlIngest},
	{"opt.optimize_w2_ms", "ms", "lower", "probe", "", "none yet (requests pin workers:1); the parallel-search headroom", wlIngest},
	{"opt.ns_per_eval", "ns", "lower", "probe", "", "op_p50_ms @ plan-miss", wlIngest},
	{"opt.evals_per_plan", "count", "lower", "probe", "", "op_p50_ms @ plan-miss", wlIngest},
	{"opt.pruned_share", "share", "higher", "probe", "", "op_p50_ms @ plan-miss", wlIngest},
	{"opt.saved_evals_share", "share", "higher", "probe", "", "op_p50_ms @ mixed-replay", wlIngest},
	{"opt.allocs_per_plan", "count", "lower", "probe", "", "cpu_ms_per_op @ plan-miss", wlIngest},
	{"opt.bytes_per_plan", "B", "lower", "probe", "", "rss_peak_mb, cpu_ms_per_op @ plan-miss", wlIngest},
	// model, failure: the cost model under the search.
	{"model.evaluate_ns", "ns", "lower", "probe", "", "op_p50_ms @ plan-miss (about evals x evaluate_ns of it)", wlIngest},
	{"model.evaluate_allocs_op", "count", "lower", "probe", "", "cpu_ms_per_op @ plan-miss", wlIngest},
	{"model.prepare_us", "us", "lower", "probe", "", "op_p50_ms @ plan-miss", wlIngest},
	{"failure.estimate_us", "us", "lower", "probe", "", "op_p50_ms @ plan-miss", wlIngest},
	// replay, strategy: Monte Carlo and the named strategies.
	{"replay.mc_rep_us", "us", "lower", "probe", "", "cpu_ms_per_op @ mixed-replay", wlPlanMiss},
	{"replay.mc_reps_per_s", "1/s", "higher", "probe", "", "cpu_ms_per_op @ mixed-replay", wlPlanMiss},
	{"replay.mc_allocs_rep", "count", "lower", "probe", "", "cpu_ms_per_op @ mixed-replay", wlPlanMiss},
	{"strategy.plan_ms", "ms", "lower", "probe", "", "cpu_ms_per_op, harness.op_p95_ms @ mixed-replay", wlPlanMiss},
	// cloud: the sharded market.
	{"cloud.validate_tick_ns", "ns", "lower", "probe", "", "op_p50_ms @ ingest-feed", wlPlanMiss},
	{"cloud.append_batch_us", "us", "lower", "probe", "", "op_p50_ms @ ingest-feed", wlPlanMiss},
	{"cloud.append_allocs_op", "count", "lower", "probe", "", "cpu_ms_per_op @ ingest-feed", wlPlanMiss},
	{"cloud.capture_us", "us", "lower", "probe", "", "op_p50_ms @ mixed-replay (every plan, hit or miss, pays one)", wlIngest},
	{"cloud.window_us", "us", "lower", "probe", "", "op_p50_ms @ mixed-replay, boundary-reopt", wlIngest},
	// store: the WAL.
	{"store.append_batch_us", "us", "lower", "probe", "", "op_p50_ms, throughput_ops_s @ ingest-feed (batch path)", wlPlanMiss},
	{"store.append_us", "us", "lower", "probe", "", "throughput_ops_s @ boundary-reopt (single-append path)", wlPlanMiss},
	{"store.snapshot_ms", "ms", "lower", "probe", "", "harness.op_p95_ms @ ingest-feed", wlPlanMiss},
	{"store.recover_ms", "ms", "lower", "scrape", "ingest-feed", "setup_s after a crash; measured by ingest-feed's SIGKILL check", wlPlanMiss},
	{"store.wal_bytes_per_tick", "B", "lower", "probe", "", "op_p50_ms @ ingest-feed", wlPlanMiss},
	{"store.fsyncs_per_op", "count", "lower", "scrape", "ingest-feed", "op_p50_ms @ ingest-feed on tmpfs (fsync on)", wlPlanMiss},
	{"store.fsync_busy_s", "s", "lower", "scrape", "ingest-feed", "throughput_ops_s @ ingest-feed on tmpfs (fsync on)", wlPlanMiss},
	{"store.wal_records_per_op", "count", "lower", "scrape", "ingest-feed", "throughput_ops_s @ ingest-feed, boundary-reopt", wlPlanMiss},
	{"store.snapshots", "count", "lower", "scrape", "ingest-feed", "harness.op_p95_ms @ ingest-feed (background cuts in the window)", wlPlanMiss},
	// serve: the HTTP layer, caches, ingest pipeline and scheduler.
	{"serve.plan_hit_us", "us", "lower", "probe", "", "op_p50_ms @ mixed-replay (hit path)", wlPlanMiss},
	{"serve.plan_miss_self_us", "us", "lower", "trace", "plan-miss", "op_p50_ms @ plan-miss (handler minus the opt child)", wlIngest},
	{"serve.prices_self_us", "us", "lower", "trace", "ingest-feed", "op_p50_ms @ ingest-feed (decode, queue, encode)", wlPlanMiss},
	{"serve.encode_plan_ns", "ns", "lower", "probe", "", "op_p50_ms @ mixed-replay", wlIngest},
	{"serve.request_busy_s.plan", "s", "lower", "scrape", "plan-miss", "cpu_ms_per_op @ plan-miss, mixed-replay", wlIngest},
	{"serve.request_busy_s.prices", "s", "lower", "scrape", "ingest-feed", "cpu_ms_per_op @ ingest-feed", wlPlanMiss},
	{"serve.request_busy_s.evaluate", "s", "lower", "scrape", "mixed-replay", "cpu_ms_per_op @ mixed-replay", wlPlanMiss},
	{"serve.request_busy_s.montecarlo", "s", "lower", "scrape", "mixed-replay", "cpu_ms_per_op @ mixed-replay", wlPlanMiss},
	{"serve.ingest_busy_s", "s", "lower", "scrape", "ingest-feed", "throughput_ops_s @ ingest-feed", wlPlanMiss},
	{"serve.plan_cache_hit_rate", "share", "higher", "scrape", "mixed-replay", "op_p50_ms @ mixed-replay", wlPlanMiss},
	{"serve.reopt_dedup_share", "share", "higher", "scrape", "boundary-reopt", "op_p50_ms @ boundary-reopt", wlPlanMiss},
	{"serve.evals_saved_share", "share", "higher", "scrape", "boundary-reopt", "cpu_ms_per_op @ boundary-reopt, mixed-replay", wlIngest},
	{"serve.ingest_batch_mean", "count", "higher", "scrape", "ingest-feed", "throughput_ops_s @ ingest-feed", wlPlanMiss},
	{"serve.ingest_queue_peak", "count", "lower", "scrape", "ingest-feed", "harness.op_p95_ms @ ingest-feed", wlPlanMiss},
	{"serve.scheduler_lag_mean_ms", "ms", "lower", "scrape", "boundary-reopt", "op_p50_ms @ boundary-reopt", wlPlanMiss},
	{"serve.scheduler_lag_p99_s", "s", "lower", "scrape", "boundary-reopt", "harness.op_p95_ms @ boundary-reopt", wlPlanMiss},
	{"serve.backpressure_429", "count", "lower", "harness", "ingest-feed", "throughput_ops_s @ ingest-feed (any refusal fails the run)", wlPlanMiss},
	// cluster: ownership, framing, forwarding, replication.
	{"cluster.owner_lookup_ns", "ns", "lower", "probe", "", "op_p50_ms @ cluster-mixed", wlMixed},
	{"cluster.frame_roundtrip_ns", "ns", "lower", "probe", "", "cpu_ms_per_op @ cluster-mixed", wlMixed},
	{"cluster.forwarded_share", "share", "lower", "scrape", "cluster-mixed", "cpu_ms_per_op @ cluster-mixed", wlMixed},
	{"cluster.proxied_plans", "count", "lower", "scrape", "cluster-mixed", "op_p50_ms @ cluster-mixed", wlMixed},
	{"cluster.replication_lag_ms", "ms", "lower", "harness", "cluster-mixed", "none gated; how far the standby trails the last ack", wlMixed},
	{"cluster.hop_overhead_ms", "ms", "lower", "harness", "cluster-mixed", "op_p50_ms @ cluster-mixed (a forwarded tick minus a local one)", wlMixed},
	// obs: the cost of the instrumentation itself.
	{"obs.span_disabled_ns", "ns", "lower", "probe", "", "cpu_ms_per_op everywhere, by at most 2 %", ""},
	{"obs.span_enabled_ns", "ns", "lower", "probe", "", "cpu_ms_per_op everywhere, by at most 2 %", ""},
	{"obs.observe_ns", "ns", "lower", "probe", "", "cpu_ms_per_op everywhere, by at most 2 %", ""},
	{"obs.trace_overhead_pct", "%", "lower", "trace", "mixed-replay", "cpu_ms_per_op everywhere, by at most 2 %", ""},
	// harness: the load generator itself, and the ungated numbers.
	{"harness.client_overhead_us", "us", "lower", "harness", "ingest-feed", "none: client latency minus sompid's own request time", ""},
	{"harness.late_ms_p99", "ms", "lower", "harness", "mixed-replay", "none: how late the open loop sent; large means the generator is the bottleneck", ""},
	{"harness.op_p95_ms", "ms", "lower", "harness", "plan-miss", "none: ungated tail of op_p50_ms's latency — on this machine it does not repeat within a bound", ""},
	{"harness.plan_p99_ms", "ms", "lower", "harness", "plan-miss", "none: ungated tail", ""},
	{"harness.prices_p999_ms", "ms", "lower", "harness", "ingest-feed", "none: ungated tail", ""},
	{"harness.register_ms", "ms", "lower", "harness", "boundary-reopt", "none: wall of registering a pass's 384 sessions @ boundary-reopt", ""},
	{"harness.slo_miss_rate", "share", "lower", "harness", "mixed-replay", "none gated (it is 0 on a healthy run); folded into throughput_ops_s", ""},
	{"harness.error_rate", "share", "lower", "harness", "mixed-replay", "none gated (any failure fails the run)", ""},
	{"harness.http_self_us", "us", "lower", "trace", "mixed-replay", "none: real HTTP minus the bare handler, per request in-process", ""},
	{"harness.ladder_excess_pct", "%", "lower", "trace", "mixed-replay", "none: by how much the traced pass's lower rungs outran the rungs above them, of the request time; above 10 the suite fails", ""},
	{"harness.layer_cover_pct", "%", "higher", "trace", "plan-miss", "none: share of the handler twin's time the layer calls account for; the rest is the handler's own", ""},
}

// Contract limits of BENCHMARK.json.
const (
	maxWorkloads = 8
	maxE2E       = 16
	maxLayer     = 128
	maxBound     = 0.25
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadInfo `json:"workloads"`
	EndToEnd   []e2eMetric    `json:"end_to_end"`
	PerLayer   []layerMetric  `json:"per_layer"`
}

// runSeconds is how long one driver run measures.
const runSeconds = 12

func buildManifest() manifest {
	return manifest{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadCatalog,
		EndToEnd:   e2eCatalog,
		PerLayer:   layerCatalog,
	}
}

// validate checks a manifest against the grammar and caps of the
// contract: names, units, one-line whys, bounds, counts, uniqueness.
func (m manifest) validate() error {
	if n := len(m.Workloads); n < 2 || n > maxWorkloads {
		return fmt.Errorf("%d workloads, want 2..%d", n, maxWorkloads)
	}
	if n := len(m.EndToEnd); n < 1 || n > maxE2E {
		return fmt.Errorf("%d end-to-end metrics, want 1..%d", n, maxE2E)
	}
	if n := len(m.PerLayer); n < 1 || n > maxLayer {
		return fmt.Errorf("%d per-layer metrics, want 1..%d", n, maxLayer)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d out of 1..60", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	unit := func(u, better string) error {
		if !unitRE.MatchString(u) {
			return fmt.Errorf("unit %q does not match %s", u, unitRE)
		}
		if better != "lower" && better != "higher" {
			return fmt.Errorf("better %q is neither lower nor higher", better)
		}
		return nil
	}
	for _, w := range m.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		if err := name(e.Name); err != nil {
			return err
		}
		if err := unit(e.Unit, e.Better); err != nil {
			return fmt.Errorf("%s: %v", e.Name, err)
		}
		if e.Bound <= 0 || e.Bound > maxBound {
			return fmt.Errorf("%s: bound %v out of (0, %v]", e.Name, e.Bound, maxBound)
		}
		if e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		return fmt.Errorf("no setup_s (s, lower) end-to-end metric")
	}
	for _, l := range m.PerLayer {
		if err := name(l.Name); err != nil {
			return err
		}
		if err := unit(l.Unit, l.Better); err != nil {
			return fmt.Errorf("%s: %v", l.Name, err)
		}
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if len(b) > 64<<10 {
		return fmt.Errorf("manifest is %d bytes, limit 64 KiB", len(b))
	}
	return nil
}
