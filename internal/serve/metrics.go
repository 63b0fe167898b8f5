package serve

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sompi/internal/cloud"
	"sompi/internal/obs"
	"sompi/internal/opt"
	"sompi/internal/store"
	"sompi/internal/strategy"
)

// endpoint indexes the per-endpoint counters.
type endpoint int

const (
	epPlan endpoint = iota
	epEvaluate
	epMonteCarlo
	epPrices
	epSessions
	epStrategies
	numEndpoints
)

var endpointNames = [numEndpoints]string{"plan", "evaluate", "montecarlo", "prices", "sessions", "strategies"}

// metrics is the service's observable state, all lock-free counters and
// histograms so the hot paths never contend. Rendering is Prometheus text
// exposition format — with # HELP/# TYPE headers and paired _sum/_count
// series, so a conformant scraper parses it — without a client library.
type metrics struct {
	requests [numEndpoints]atomic.Int64
	errors   [numEndpoints]atomic.Int64
	// latency replaces the old lossy per-endpoint nanosecond sums: a full
	// fixed-bucket histogram per endpoint, rendered as
	// sompid_request_seconds{endpoint=...}.
	latency [numEndpoints]*obs.Histogram

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// Per-strategy planning families, keyed by registry name. The label
	// set is fixed at init from the strategy registry — never from
	// request input — so cardinality is bounded and unknown names are
	// simply never observed. The default ("" strategy) path records
	// under "sompi", which is what it runs.
	strategies map[string]*strategyMetrics

	evals     atomic.Int64
	pruned    atomic.Int64
	cancelled atomic.Int64

	ingestTicks   atomic.Int64
	ingestSamples atomic.Int64
	// ingestLatency times each batch from admission to applied — slot
	// wait, shard lock wait, WAL append and scheduler wake — per target
	// shard (sompid_ingest_seconds{market=...}). The key set is fixed at
	// market construction, so the map is read-only after init.
	ingestLatency map[string]*obs.Histogram
	// batchSize is the applied-batch tick-count distribution: a batch is
	// one request's run for one shard, so the maxBatchTicks bucket
	// isolates the mid-stream flushes of long one-shard feeds.
	// ingestQueuePeak is a high-water mark of batches waiting on one
	// shard, observed as each batch is admitted and maintained by
	// noteQueueDepth (instantaneous depths are sampled at render).
	batchSize       *obs.Histogram
	ingestQueuePeak atomic.Int64

	reoptimizations   atomic.Int64
	activeSessions    atomic.Int64
	completedSessions atomic.Int64

	// schedulerLag times eligibility→worker-pickup for session
	// re-optimizations; reoptDeduped counts re-opts answered by another
	// session's coalesced optimizer run instead of a fresh search.
	schedulerLag *obs.Histogram
	reoptDeduped atomic.Int64

	// evalsSaved counts ranking-stage evaluations the reuse cache's
	// per-group memo answered across all optimizations (plan requests
	// and re-opts).
	evalsSaved atomic.Int64

	// Durability: walFsync times every WAL fsync, walAppendErrors counts
	// records that failed to land (ticks aborted, session transitions
	// lost), recoverySecondsBits holds the startup recovery duration as
	// math.Float64bits (0 = no recovery ran). Appended-record and
	// snapshot counters live in the store itself (store.Stats), sampled
	// at render time.
	walFsync            *obs.Histogram
	walAppendErrors     atomic.Int64
	recoverySecondsBits atomic.Uint64
	// walTickBytes and walSessionBytes sum the payload bytes of the tick
	// and session records that reached the WAL.
	walTickBytes    atomic.Int64
	walSessionBytes atomic.Int64
	// windowTruncations counts session windows whose replay or training
	// range reached before the retained head and was clamped — each one
	// is a re-optimization that saw less (or wrong) history than asked.
	windowTruncations atomic.Int64

	// Cluster: forwarded-request and failover counters. Rendered
	// unconditionally (zeros single-node) like the durability families.
	clusterForwardedPrices atomic.Int64
	clusterForwardedPlans  atomic.Int64
	clusterPromotions      atomic.Int64
	clusterAdoptedSessions atomic.Int64

	// Capture: captureRecords counts requests appended to the capture
	// log, captureErrors appends that failed (the request still served),
	// captureSkipped requests whose body exceeded the capture bound,
	// captureAppend the per-append latency. All render unconditionally —
	// zeros with capture off — so the family set is deployment-stable.
	captureRecords atomic.Int64
	captureErrors  atomic.Int64
	captureSkipped atomic.Int64
	captureAppend  *obs.Histogram

	// start anchors sompid_uptime_seconds.
	start time.Time
}

// strategyMetrics is one strategy's planning counters.
type strategyMetrics struct {
	requests    atomic.Int64
	latency     *obs.Histogram
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
}

// init allocates the histograms. keys is the market's fixed shard set.
func (m *metrics) init(keys []cloud.MarketKey) {
	for ep := range m.latency {
		m.latency[ep] = obs.NewHistogram(nil)
	}
	m.ingestLatency = make(map[string]*obs.Histogram, len(keys))
	for _, k := range keys {
		m.ingestLatency[k.String()] = obs.NewHistogram(nil)
	}
	m.strategies = make(map[string]*strategyMetrics, len(strategy.Names()))
	for _, name := range strategy.Names() {
		m.strategies[name] = &strategyMetrics{latency: obs.NewHistogram(nil)}
	}
	m.walFsync = obs.NewHistogram(nil)
	m.batchSize = obs.NewHistogram([]float64{1, 2, 4, 8, 16, 32, 64, 128, maxBatchTicks})
	m.schedulerLag = obs.NewHistogram(nil)
	m.captureAppend = obs.NewHistogram(nil)
	m.start = time.Now()
}

// buildVersion resolves the binary's module version once: the main
// module's version when the build carries one, else the VCS revision,
// else "devel". Dashboards join it with sompid_build_info to attribute
// a latency or plan-diff regression to the build that introduced it.
var buildVersion = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := bi.Main.Version
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && len(s.Value) >= 12 {
			return s.Value[:12]
		}
	}
	if v == "" || v == "(devel)" {
		return "devel"
	}
	return v
})

// noteQueueDepth folds one observed per-shard waiting-batch count into
// the high-water mark.
func (m *metrics) noteQueueDepth(d int64) {
	for {
		cur := m.ingestQueuePeak.Load()
		if d <= cur || m.ingestQueuePeak.CompareAndSwap(cur, d) {
			return
		}
	}
}

// observeOptimize adds one optimizer run's effort counters — plan
// request or session re-opt, default path or named strategy. It counts
// the work the result reports whether or not the run erred: a cancelled
// search still burned the evaluations it got through.
func (m *metrics) observeOptimize(r opt.Result) {
	m.evals.Add(int64(r.Evals))
	m.pruned.Add(int64(r.Pruned))
	m.evalsSaved.Add(int64(r.SavedEvals))
}

// observeStrategy records one plan request's latency under its
// (registry-validated) strategy label.
func (m *metrics) observeStrategy(name string, seconds float64) {
	if sm, ok := m.strategies[name]; ok {
		sm.requests.Add(1)
		sm.latency.Observe(seconds)
	}
}

// strategyCache records one plan-cache lookup under its strategy label.
func (m *metrics) strategyCache(name string, hit bool) {
	sm, ok := m.strategies[name]
	if !ok {
		return
	}
	if hit {
		sm.cacheHits.Add(1)
	} else {
		sm.cacheMisses.Add(1)
	}
}

// observe records one request's latency and error outcome.
func (m *metrics) observe(ep endpoint, seconds float64, failed bool) {
	m.requests[ep].Add(1)
	m.latency[ep].Observe(seconds)
	if failed {
		m.errors[ep].Add(1)
	}
}

// observeIngest records one batch's admission→applied latency for a shard.
func (m *metrics) observeIngest(market string, seconds float64) {
	if h, ok := m.ingestLatency[market]; ok {
		h.Observe(seconds)
	}
}

// escapeLabel escapes a Prometheus label value: backslash, double quote
// and newline get backslash escapes, everything else passes through
// verbatim (the exposition format is UTF-8; Go's %q would emit \uXXXX
// escapes Prometheus parsers reject).
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	// Byte-wise so arbitrary (even invalid-UTF-8) values pass through
	// unmangled; the escaped characters are all ASCII.
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// header writes one family's # HELP/# TYPE preamble.
func header(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// renderSample carries everything render needs that lives outside the
// metrics struct — sampled by the caller from the market, cache,
// ingester, store and cluster at scrape time.
type renderSample struct {
	marketVersion uint64
	frontier      float64
	cacheLen      int
	shards        []cloud.ShardStat
	wal           store.Stats
	queueDepths   map[string]int
	captureSeg    uint64
	cluster       clusterMetricsSample
}

// clusterMetricsSample is the cluster subsystem's scrape-time gauges;
// the zero value renders zeros (single-node mode).
type clusterMetricsSample struct {
	enabled             bool
	ownedShards         int
	peersConnected      int
	replicatedRecords   int64
	replicatedSnapshots int64
	resyncs             int64
	replicationErrors   int64
}

// render writes the exposition text.
func (m *metrics) render(w io.Writer, s renderSample) {
	marketVersion, frontier, cacheLen := s.marketVersion, s.frontier, s.cacheLen
	shards, wal, queueDepths, captureSeg := s.shards, s.wal, s.queueDepths, s.captureSeg
	// Build identity first: replay reports and dashboards join on it to
	// attribute a regression to the binary that served the traffic.
	header(w, "sompid_build_info", "gauge", "Build identity of the serving binary; always 1.")
	fmt.Fprintf(w, "sompid_build_info{version=\"%s\",go_version=\"%s\"} 1\n",
		escapeLabel(buildVersion()), escapeLabel(runtime.Version()))
	header(w, "sompid_uptime_seconds", "gauge", "Seconds since this process initialized its metrics.")
	fmt.Fprintf(w, "sompid_uptime_seconds %.3f\n", time.Since(m.start).Seconds())

	header(w, "sompid_requests_total", "counter", "Requests served, by endpoint.")
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		fmt.Fprintf(w, "sompid_requests_total{endpoint=\"%s\"} %d\n", escapeLabel(endpointNames[ep]), m.requests[ep].Load())
	}
	header(w, "sompid_request_errors_total", "counter", "Requests answered with status >= 400, by endpoint.")
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		fmt.Fprintf(w, "sompid_request_errors_total{endpoint=\"%s\"} %d\n", escapeLabel(endpointNames[ep]), m.errors[ep].Load())
	}
	header(w, "sompid_request_seconds", "histogram", "Request latency in seconds, by endpoint.")
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		m.latency[ep].WriteProm(w, "sompid_request_seconds", fmt.Sprintf("endpoint=\"%s\"", escapeLabel(endpointNames[ep])))
	}

	// Per-strategy planning families. sompid_plan_request_seconds is its
	// own family rather than a strategy label on sompid_request_seconds:
	// labeling one endpoint's histogram twice would double-count every
	// plan request under sum-over-labels aggregation.
	header(w, "sompid_plan_requests_total", "counter", "Plan requests served, by planning strategy.")
	for _, name := range strategy.Names() {
		fmt.Fprintf(w, "sompid_plan_requests_total{strategy=\"%s\"} %d\n", escapeLabel(name), m.strategies[name].requests.Load())
	}
	header(w, "sompid_plan_request_seconds", "histogram", "Plan request latency in seconds, by planning strategy.")
	for _, name := range strategy.Names() {
		m.strategies[name].latency.WriteProm(w, "sompid_plan_request_seconds", fmt.Sprintf("strategy=\"%s\"", escapeLabel(name)))
	}
	header(w, "sompid_strategy_cache_hits_total", "counter", "Plan cache hits, by planning strategy.")
	for _, name := range strategy.Names() {
		fmt.Fprintf(w, "sompid_strategy_cache_hits_total{strategy=\"%s\"} %d\n", escapeLabel(name), m.strategies[name].cacheHits.Load())
	}
	header(w, "sompid_strategy_cache_misses_total", "counter", "Plan cache misses, by planning strategy.")
	for _, name := range strategy.Names() {
		fmt.Fprintf(w, "sompid_strategy_cache_misses_total{strategy=\"%s\"} %d\n", escapeLabel(name), m.strategies[name].cacheMisses.Load())
	}

	header(w, "sompid_plan_cache_hits_total", "counter", "Plan cache hits.")
	fmt.Fprintf(w, "sompid_plan_cache_hits_total %d\n", m.cacheHits.Load())
	header(w, "sompid_plan_cache_misses_total", "counter", "Plan cache misses.")
	fmt.Fprintf(w, "sompid_plan_cache_misses_total %d\n", m.cacheMisses.Load())
	header(w, "sompid_plan_cache_entries", "gauge", "Plan cache resident entries.")
	fmt.Fprintf(w, "sompid_plan_cache_entries %d\n", cacheLen)
	header(w, "sompid_optimizer_evals_total", "counter", "Evaluations the optimizer performed: baselines, ranking and the search leaves it visited.")
	fmt.Fprintf(w, "sompid_optimizer_evals_total %d\n", m.evals.Load())
	header(w, "sompid_optimizer_pruned_total", "counter", "Search leaves a branch-and-bound bound settled without visiting them.")
	fmt.Fprintf(w, "sompid_optimizer_pruned_total %d\n", m.pruned.Load())
	header(w, "sompid_requests_cancelled_total", "counter", "Requests abandoned by the client or timed out mid-work.")
	fmt.Fprintf(w, "sompid_requests_cancelled_total %d\n", m.cancelled.Load())
	header(w, "sompid_ingest_ticks_total", "counter", "Price ticks ingested.")
	fmt.Fprintf(w, "sompid_ingest_ticks_total %d\n", m.ingestTicks.Load())
	header(w, "sompid_ingest_samples_total", "counter", "Price samples ingested.")
	fmt.Fprintf(w, "sompid_ingest_samples_total %d\n", m.ingestSamples.Load())

	header(w, "sompid_ingest_seconds", "histogram", "Per-shard batch latency in seconds: admission through append and scheduler wake.")
	// Deterministic label order: sorted market keys.
	names := make([]string, 0, len(m.ingestLatency))
	for name := range m.ingestLatency {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.ingestLatency[name].WriteProm(w, "sompid_ingest_seconds", fmt.Sprintf("market=\"%s\"", escapeLabel(name)))
	}

	header(w, "sompid_ingest_queue_depth", "gauge", "Per-shard ingest backlog: batches waiting for the shard lock behind the one applying.")
	depthNames := make([]string, 0, len(queueDepths))
	for name := range queueDepths {
		depthNames = append(depthNames, name)
	}
	sort.Strings(depthNames)
	for _, name := range depthNames {
		fmt.Fprintf(w, "sompid_ingest_queue_depth{market=\"%s\"} %d\n", escapeLabel(name), queueDepths[name])
	}
	header(w, "sompid_ingest_queue_peak_depth", "gauge", "High-water mark since start of batches waiting on one shard behind the one applying.")
	fmt.Fprintf(w, "sompid_ingest_queue_peak_depth %d\n", m.ingestQueuePeak.Load())
	header(w, "sompid_ingest_batch_size", "histogram", "Ticks per applied ingest batch.")
	m.batchSize.WriteProm(w, "sompid_ingest_batch_size", "")

	header(w, "sompid_market_version", "gauge", "Composite market mutation version.")
	fmt.Fprintf(w, "sompid_market_version %d\n", marketVersion)
	header(w, "sompid_market_frontier_hours", "gauge", "Shortest price frontier across all shards, in hours.")
	fmt.Fprintf(w, "sompid_market_frontier_hours %.6f\n", frontier)

	header(w, "sompid_shard_version", "gauge", "Per-shard mutation version.")
	for _, st := range shards {
		fmt.Fprintf(w, "sompid_shard_version{market=\"%s\"} %d\n", escapeLabel(st.Key.String()), st.Version)
	}
	header(w, "sompid_shard_ticks_total", "counter", "Per-shard ingestion appends applied.")
	for _, st := range shards {
		fmt.Fprintf(w, "sompid_shard_ticks_total{market=\"%s\"} %d\n", escapeLabel(st.Key.String()), st.Ticks)
	}
	header(w, "sompid_shard_samples", "gauge", "Per-shard retained price samples.")
	for _, st := range shards {
		fmt.Fprintf(w, "sompid_shard_samples{market=\"%s\"} %d\n", escapeLabel(st.Key.String()), st.Samples)
	}
	header(w, "sompid_shard_compacted_samples_total", "counter", "Per-shard samples dropped by ring-buffer retention.")
	for _, st := range shards {
		fmt.Fprintf(w, "sompid_shard_compacted_samples_total{market=\"%s\"} %d\n", escapeLabel(st.Key.String()), st.Compacted)
	}

	// Durability families render unconditionally — zeros without a
	// configured store — so scrapers and the conformance test see a
	// stable family set regardless of deployment mode.
	header(w, "sompid_wal_appended_records_total", "counter", "WAL records appended (ticks + session transitions).")
	fmt.Fprintf(w, "sompid_wal_appended_records_total %d\n", wal.AppendedRecords)
	header(w, "sompid_wal_appended_bytes_total", "counter", "Payload bytes of the WAL records appended, by record kind.")
	fmt.Fprintf(w, "sompid_wal_appended_bytes_total{record=\"tick\"} %d\n", m.walTickBytes.Load())
	fmt.Fprintf(w, "sompid_wal_appended_bytes_total{record=\"session\"} %d\n", m.walSessionBytes.Load())
	header(w, "sompid_wal_append_errors_total", "counter", "WAL appends that failed (aborted ticks, lost session transitions).")
	fmt.Fprintf(w, "sompid_wal_append_errors_total %d\n", m.walAppendErrors.Load())
	header(w, "sompid_wal_fsync_seconds", "histogram", "WAL fsync latency in seconds.")
	m.walFsync.WriteProm(w, "sompid_wal_fsync_seconds", "")
	header(w, "sompid_wal_active_segment", "gauge", "Sequence number of the WAL segment appends currently go to.")
	fmt.Fprintf(w, "sompid_wal_active_segment %d\n", wal.ActiveSegment)
	header(w, "sompid_snapshots_total", "counter", "Durability snapshots cut since start.")
	fmt.Fprintf(w, "sompid_snapshots_total %d\n", wal.Snapshots)
	header(w, "sompid_snapshot_bytes", "gauge", "Payload bytes of the newest snapshot, cut or recovered (0 = none): the next cut waits for this many WAL bytes, or one segment if more.")
	fmt.Fprintf(w, "sompid_snapshot_bytes %d\n", wal.SnapshotBytes)
	header(w, "sompid_recovery_seconds", "gauge", "Startup crash-recovery duration in seconds (0 = no recovery ran).")
	fmt.Fprintf(w, "sompid_recovery_seconds %.6f\n", math.Float64frombits(m.recoverySecondsBits.Load()))

	header(w, "sompid_reoptimizations_total", "counter", "Tracked-session window re-optimizations.")
	fmt.Fprintf(w, "sompid_reoptimizations_total %d\n", m.reoptimizations.Load())
	header(w, "sompid_reopt_evals_saved_total", "counter", "Ranking-stage cost-model evaluations answered by the cross-optimization reuse cache instead of re-run.")
	fmt.Fprintf(w, "sompid_reopt_evals_saved_total %d\n", m.evalsSaved.Load())
	header(w, "sompid_reopt_deduped_total", "counter", "Session re-optimizations answered by a coalesced identical optimizer run.")
	fmt.Fprintf(w, "sompid_reopt_deduped_total %d\n", m.reoptDeduped.Load())
	header(w, "sompid_scheduler_lag_seconds", "histogram", "Delay from boundary eligibility to worker pickup for session re-optimizations.")
	m.schedulerLag.WriteProm(w, "sompid_scheduler_lag_seconds", "")
	header(w, "sompid_session_window_truncations_total", "counter", "Session windows clamped by ring-buffer retention.")
	fmt.Fprintf(w, "sompid_session_window_truncations_total %d\n", m.windowTruncations.Load())
	header(w, "sompid_active_sessions", "gauge", "Live tracked sessions.")
	fmt.Fprintf(w, "sompid_active_sessions %d\n", m.activeSessions.Load())
	header(w, "sompid_sessions_completed_total", "counter", "Tracked sessions that reached a terminal state.")
	fmt.Fprintf(w, "sompid_sessions_completed_total %d\n", m.completedSessions.Load())

	header(w, "sompid_capture_records_total", "counter", "Requests appended to the traffic capture log.")
	fmt.Fprintf(w, "sompid_capture_records_total %d\n", m.captureRecords.Load())
	header(w, "sompid_capture_append_errors_total", "counter", "Capture appends that failed (the request still served).")
	fmt.Fprintf(w, "sompid_capture_append_errors_total %d\n", m.captureErrors.Load())
	header(w, "sompid_capture_skipped_total", "counter", "Requests not captured because the body exceeded the capture bound.")
	fmt.Fprintf(w, "sompid_capture_skipped_total %d\n", m.captureSkipped.Load())
	header(w, "sompid_capture_append_seconds", "histogram", "Capture-log append latency in seconds.")
	m.captureAppend.WriteProm(w, "sompid_capture_append_seconds", "")
	header(w, "sompid_capture_active_segment", "gauge", "Sequence number of the capture segment appends currently go to (0 with capture off).")
	fmt.Fprintf(w, "sompid_capture_active_segment %d\n", captureSeg)

	// Cluster families render unconditionally — zeros single-node — so
	// the family set is deployment-stable, like the durability families.
	cl := s.cluster
	header(w, "sompid_cluster_owned_shards", "gauge", "Market shards this node currently owns (0 single-node).")
	fmt.Fprintf(w, "sompid_cluster_owned_shards %d\n", cl.ownedShards)
	header(w, "sompid_cluster_peers_connected", "gauge", "Peers this node holds a live WAL replication stream from.")
	fmt.Fprintf(w, "sompid_cluster_peers_connected %d\n", cl.peersConnected)
	header(w, "sompid_cluster_replicated_records_total", "counter", "Peer WAL records replicated and applied locally.")
	fmt.Fprintf(w, "sompid_cluster_replicated_records_total %d\n", cl.replicatedRecords)
	header(w, "sompid_cluster_replicated_snapshots_total", "counter", "Peer snapshots installed into the standby mirror.")
	fmt.Fprintf(w, "sompid_cluster_replicated_snapshots_total %d\n", cl.replicatedSnapshots)
	header(w, "sompid_cluster_resyncs_total", "counter", "Standby mirrors wiped and rebuilt from scratch after divergence.")
	fmt.Fprintf(w, "sompid_cluster_resyncs_total %d\n", cl.resyncs)
	header(w, "sompid_cluster_replication_errors_total", "counter", "Replication stream failures (each one is retried).")
	fmt.Fprintf(w, "sompid_cluster_replication_errors_total %d\n", cl.replicationErrors)
	header(w, "sompid_cluster_forwarded_total", "counter", "Requests forwarded to the owning node, by endpoint.")
	fmt.Fprintf(w, "sompid_cluster_forwarded_total{endpoint=\"prices\"} %d\n", m.clusterForwardedPrices.Load())
	fmt.Fprintf(w, "sompid_cluster_forwarded_total{endpoint=\"plan\"} %d\n", m.clusterForwardedPlans.Load())
	header(w, "sompid_cluster_promotions_total", "counter", "Dead peers whose shards this node promoted.")
	fmt.Fprintf(w, "sompid_cluster_promotions_total %d\n", m.clusterPromotions.Load())
	header(w, "sompid_cluster_adopted_sessions_total", "counter", "Replicated sessions registered locally by promotions.")
	fmt.Fprintf(w, "sompid_cluster_adopted_sessions_total %d\n", m.clusterAdoptedSessions.Load())
}
