package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"sompi/internal/serve"
)

// Latency limits of the open-loop workloads, from the due time. A
// record that fails, is refused or answers later than its limit counts
// against slo_miss_rate and does not count toward throughput_ops_s.
var sloLimit = map[string]time.Duration{
	epPlan:       250 * time.Millisecond,
	epPrices:     25 * time.Millisecond,
	epEvaluate:   100 * time.Millisecond,
	epMonteCarlo: 100 * time.Millisecond,
	epSessions:   100 * time.Millisecond,
	epStrategies: 100 * time.Millisecond,
}

// minSetups is how many set-ups setup_s is the median of, at least. An
// open-loop workload is set up that many times and the last deployment
// runs the schedule; a closed-loop workload sets up once per pass, and
// again without a pass while it has fewer (plan-miss fits three or four
// passes, and one slow exec in three moved its median by a quarter).
const minSetups = 5

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	// E2E holds the end-to-end metrics: the gated ones of BENCHMARK.json
	// and the ungated ones printed beside them (op_tail_ms, prices_*).
	E2E map[string]summary `json:"end_to_end"`
	// Layer holds the per-layer metrics this run could measure: the
	// scrape-sourced ones and the harness's own.
	Layer map[string]float64 `json:"per_layer"`
	// Counts are the exact counts beside the timings.
	Counts map[string]float64 `json:"counts"`
	// Series are the per-pass (or per-segment) values the medians above
	// were taken over, in run order.
	Series map[string][]float64 `json:"series"`
	// Digest identifies the digest-checked responses of an open-loop
	// run; mixed-replay and cluster-mixed must agree on it.
	Digest string `json:"digest,omitempty"`

	warm      []rec // the warm-up every deployment saw
	firstPass []rec // pass 0 (or the open-loop schedule), for the traced ladder
}

func newResult(name string, seed uint64, seconds float64) *runResult {
	return &runResult{
		Workload: name, Seed: seed, Seconds: seconds,
		E2E:    make(map[string]summary),
		Layer:  make(map[string]float64),
		Counts: make(map[string]float64),
		Series: make(map[string][]float64),
	}
}

// fail counts n failed operations and records why.
func (r *runResult) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// passBudget reports whether another pass should start: minPasses
// always run, and after that a pass starts only while more than half of
// it still fits in the run's seconds.
func passBudget(pass, minPasses int, measured, seconds float64) bool {
	if pass < minPasses {
		return true
	}
	return measured+measured/float64(pass)/2 < seconds
}

// fullRunPasses is how many passes a closed-loop run makes whatever its
// seconds; a driver trace run, which only needs the scrape, makes one.
const fullRunPasses = 3

// run measures one workload once.
func (e *env) run(name string, seed uint64, seconds float64, minPasses int) (*runResult, error) {
	res := newResult(name, seed, seconds)
	g := newGenerator(name, seed)
	res.warm = g.warmup()
	var w window
	var setups []float64
	var ops float64

	if openLoopWorkload(name) {
		var st *stage
		for i := 0; i < minSetups; i++ {
			if st != nil {
				st.close()
			}
			var err error
			if st, err = e.setUp(name, res.warm); err != nil {
				return nil, err
			}
			setups = append(setups, st.setupS)
		}
		defer st.close()
		var err error
		if ops, err = measureOpen(res, g, st, &w); err != nil {
			return nil, err
		}
	} else {
		// Every pass runs on a sompid that has seen only the warm-up, so
		// passes are the same work on the same state however many fit, and
		// every pass yields one more set-up time.
		var acc passAcc
		for pass := 0; passBudget(pass, minPasses, acc.measuredS, seconds); pass++ {
			st, err := e.setUp(name, res.warm)
			if err != nil {
				return nil, err
			}
			setups = append(setups, st.setupS)
			recs := g.pass(pass)
			if pass == 0 {
				res.firstPass = recs
			}
			if name == wlBoundary {
				measureBoundaryPass(res, &acc, st, recs)
			} else {
				measureClosedPass(res, &acc, st, recs)
			}
			err = w.end(st)
			// Checks that need this pass's deployment, after its timings;
			// the crash-recovery check runs once, on the last pass's.
			if err == nil {
				switch name {
				case wlIngest:
					err = checkVersionVector(res, st.clients[0], res.warm, recs)
					if lastPass := !passBudget(pass+1, minPasses, acc.measuredS, seconds); err == nil && lastPass {
						err = e.checkIngestRecovery(res, st.dep)
					}
				case wlBoundary:
					err = checkSessions(res, st.clients[0])
				}
			}
			st.close()
			if err != nil {
				return nil, err
			}
			if name == wlBoundary {
				checkBoundaryReopts(res, res.warm, recs, acc.reopts[pass])
			}
		}
		for len(setups) < minSetups {
			st, err := e.setUp(name, res.warm)
			if err != nil {
				return nil, err
			}
			setups = append(setups, st.setupS)
			st.close()
		}
		ops = acc.finish(res, name)
		if name == wlPlanMiss {
			checkPlansAgainstLibrary(res, acc.kept, acc.keptResults, nil)
		}
	}

	res.E2E["setup_s"] = summarize(setups)
	res.Series["setup_s"] = setups
	res.Counts["ops"] = ops
	res.Counts["cpu_s"] = w.cpuS
	if ops > 0 {
		res.E2E["cpu_ms_per_op"] = summarize([]float64{w.cpuS * 1000 / ops})
	}
	res.E2E["rss_peak_mb"] = summarize([]float64{w.rssPeak})
	scrapeLayers(res, w.d, w.after, ops)
	res.Layer["harness.error_rate"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }

// okLatencies collects the answered results' latencies in ms, ascending.
func okLatencies(results []result) []float64 {
	var out []float64
	for i := range results {
		if results[i].ok() {
			out = append(out, msOf(results[i].latNs))
		}
	}
	sort.Float64s(out)
	return out
}

// tally counts a batch of sent records: every one attempted, every one
// not answered 200 failed (a 429 also as backpressure), and the time
// the clients spent in requests.
func tally(res *runResult, recs []rec, results []result) {
	res.Attempted += len(recs)
	for i := range results {
		res.Counts["client_busy_s"] += float64(results[i].latNs-results[i].lateNs) / 1e9
		if results[i].status == http.StatusTooManyRequests {
			res.Counts["refused_429"]++
		}
		if !results[i].ok() {
			res.fail(1, "%s %s (seq %d): status %d err %v %s", recs[i].Method, recs[i].Path,
				recs[i].Seq, results[i].status, results[i].err, clipBytes(results[i].body, 120))
		}
	}
}

func clipBytes(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// passAcc accumulates a closed-loop workload's per-pass numbers.
type passAcc struct {
	measuredS     float64
	passes        int
	ops           float64
	thr           []float64 // operations per second, per pass
	p50, p95, p99 []float64 // per-pass latency percentiles of the operation
	all           []float64 // every operation latency of the run
	regMS         []float64 // boundary-reopt: registration wall per pass
	reopts        []int     // boundary-reopt: re-optimizations reported per pass
	kept          []rec     // plan-miss: records whose responses are checked
	keptResults   []result
}

// measureClosedPass runs one pass of plan-miss or ingest-feed: fixed
// work pulled from one queue by two clients.
func measureClosedPass(res *runResult, acc *passAcc, st *stage, recs []rec) {
	results, wall := closedLoop(st.clients, recs)
	tally(res, recs, results)
	lat := okLatencies(results)
	acc.add(wall, float64(len(lat)), lat)
	for i := range recs {
		if recs[i].keep {
			acc.kept = append(acc.kept, recs[i])
			acc.keptResults = append(acc.keptResults, results[i])
		}
	}
}

func (a *passAcc) add(wall time.Duration, ops float64, lat []float64) {
	a.passes++
	a.measuredS += wall.Seconds()
	a.ops += ops
	a.thr = append(a.thr, ops/wall.Seconds())
	a.p50 = append(a.p50, percentile(lat, 50))
	a.p95 = append(a.p95, percentile(lat, 95))
	a.p99 = append(a.p99, percentile(lat, 99))
	a.all = append(a.all, lat...)
}

// measureBoundaryPass runs one pass of boundary-reopt: register the
// sessions, then cross boundaryFeeds boundaries with synchronous feeds
// from one driver. The operation is one re-optimization; the latency is
// the wall of a crossing that had at least one live session to drain.
func measureBoundaryPass(res *runResult, acc *passAcc, st *stage, recs []rec) {
	c := st.clients[:1]
	nReg := 0
	for nReg < len(recs) && recs[nReg].register {
		nReg++
	}
	regResults, regWall := closedLoop(c, recs[:nReg])
	tally(res, recs[:nReg], regResults)
	acc.regMS = append(acc.regMS, regWall.Seconds()*1000)

	feeds := recs[nReg:]
	results, wall := closedLoop(c, feeds)
	tally(res, feeds, results)
	live, reopts, completed := nReg, 0, 0
	var drains []float64
	for i := range results {
		if !results[i].ok() {
			continue
		}
		var pr serve.PricesResponse
		if err := json.Unmarshal(results[i].body, &pr); err != nil {
			res.fail(1, "boundary feed %d: undecodable response: %v", feeds[i].Seq, err)
			continue
		}
		if live > 0 {
			drains = append(drains, msOf(results[i].latNs))
		}
		reopts += pr.Reoptimized
		completed += pr.Completed
		live -= pr.Completed
	}
	if completed != nReg {
		res.fail(nReg-completed, "pass %d: %d of %d sessions completed after %d boundary feeds", acc.passes, completed, nReg, len(feeds))
	}
	acc.reopts = append(acc.reopts, reopts)
	sort.Float64s(drains)
	acc.add(wall, float64(reopts), drains)
}

// over is a summary whose value was taken over the whole run (n
// samples) and whose quartiles come from its parts, the passes or
// segments.
func over(whole float64, parts []float64, n int) summary {
	s := summarize(parts)
	s.Median, s.N = whole, n
	return s
}

// reportOp records the workload's operation: the gated median, and
// beside it — gated by nothing — its p95 (demoted to the harness layer
// by the issue's rule for tails) and the highest percentile that still
// has ten samples beyond it. sorted is every operation latency of the
// run; p50 and p95 are the per-pass or per-segment values the quartiles
// and the series come from.
func reportOp(res *runResult, sorted, p50, p95 []float64) {
	res.E2E["op_p50_ms"] = over(percentile(sorted, 50), p50, len(sorted))
	res.Series["op_p50_ms"] = p50
	res.Layer["harness.op_p95_ms"] = percentile(sorted, 95)
	res.Series["harness.op_p95_ms"] = p95
	p := tailPercentile(len(sorted))
	res.E2E["op_tail_ms"] = summary{Median: percentile(sorted, p), Q1: percentile(sorted, p), Q3: percentile(sorted, p), N: len(sorted)}
	res.Counts["op_tail_percentile"] = p
}

// finish turns the accumulated passes into the workload's end-to-end
// metrics and returns the operations completed. Passes are the same
// work on the same state, so the run's percentiles are taken over every
// sample of every pass and its throughput over all measured time; the
// per-pass values give the quartiles printed beside them.
func (a *passAcc) finish(res *runResult, name string) float64 {
	sort.Float64s(a.all)
	res.Counts["passes"] = float64(a.passes)
	res.Counts["measured_s"] = a.measuredS
	res.Counts["latency_samples"] = float64(len(a.all))
	res.E2E["throughput_ops_s"] = over(a.ops/a.measuredS, a.thr, a.passes)
	res.Series["throughput_ops_s"] = a.thr
	reportOp(res, a.all, a.p50, a.p95)
	switch name {
	case wlPlanMiss:
		res.Layer["harness.plan_p99_ms"] = percentile(a.all, 99)
	case wlIngest:
		res.E2E["prices_p99_ms"] = over(percentile(a.all, 99), a.p99, len(a.all))
		res.Layer["harness.prices_p999_ms"] = percentile(a.all, 99.9)
	case wlBoundary:
		res.Layer["harness.register_ms"] = median(a.regMS)
		res.Counts["reoptimizations"] = a.ops
		res.Counts["pass0_reoptimizations"] = float64(a.reopts[0])
	}
	return a.ops
}

// measureOpen runs mixed-replay and cluster-mixed: the whole schedule
// is generated up front and sent on time from two connections. Metrics
// are taken per segment of the schedule and the median segment reported.
func measureOpen(res *runResult, g *generator, st *stage, w *window) (float64, error) {
	recs := g.schedule(res.Seconds)
	res.firstPass = recs
	start := time.Now().Add(20 * time.Millisecond)
	results := openLoop(st.clients, recs, start)
	res.Counts["measured_s"] = time.Since(start).Seconds()
	if err := w.end(st); err != nil {
		return 0, err
	}
	tally(res, recs, results)

	segMS := res.Seconds * 1000 / mixedSegments
	type seg struct {
		good       int
		endMS      float64 // when the segment's last good record was answered, from the start
		plan, tick []float64
	}
	segs := make([]seg, mixedSegments)
	var late, planAll, tickAll []float64
	missed, good := 0, 0
	for i := range recs {
		s := &segs[min(int(recs[i].TimeMS/segMS), mixedSegments-1)]
		late = append(late, msOf(results[i].lateNs))
		if !results[i].ok() || time.Duration(results[i].latNs) > sloLimit[recs[i].Endpoint] {
			missed++
		} else {
			good++
			s.good++
			s.endMS = math.Max(s.endMS, recs[i].TimeMS+msOf(results[i].latNs))
		}
		if !results[i].ok() {
			continue
		}
		switch ms := msOf(results[i].latNs); recs[i].Endpoint {
		case epPlan:
			s.plan = append(s.plan, ms)
			planAll = append(planAll, ms)
		case epPrices:
			s.tick = append(s.tick, ms)
			tickAll = append(tickAll, ms)
		}
	}
	var thr, planP50, planP95, tickP50, tickP99 []float64
	for i, s := range segs {
		sort.Float64s(s.plan)
		sort.Float64s(s.tick)
		// Good records over the time they took: from the segment's first
		// due time to its last good answer.
		if span := s.endMS - float64(i)*segMS; span > 0 {
			thr = append(thr, float64(s.good)/(span/1000))
		}
		planP50 = append(planP50, percentile(s.plan, 50))
		planP95 = append(planP95, percentile(s.plan, 95))
		tickP50 = append(tickP50, percentile(s.tick, 50))
		tickP99 = append(tickP99, percentile(s.tick, 99))
	}
	sort.Float64s(late)
	sort.Float64s(planAll)
	sort.Float64s(tickAll)
	// The run's value is over every sample of the schedule; the segments
	// give the quartiles beside it (later segments run on a fuller reuse
	// cache, so they are not repeats of one another).
	res.E2E["throughput_ops_s"] = over(float64(good)/(segs[mixedSegments-1].endMS/1000), thr, mixedSegments)
	res.Series["throughput_ops_s"] = thr
	reportOp(res, planAll, planP50, planP95)
	res.E2E["prices_p50_ms"] = over(percentile(tickAll, 50), tickP50, len(tickAll))
	res.E2E["prices_p99_ms"] = over(percentile(tickAll, 99), tickP99, len(tickAll))
	res.Layer["harness.slo_miss_rate"] = float64(missed) / float64(len(recs))
	res.Layer["harness.late_ms_p99"] = percentile(late, 99)
	res.Layer["harness.plan_p99_ms"] = percentile(planAll, 99)
	res.Layer["harness.prices_p999_ms"] = percentile(tickAll, 99.9)
	res.Counts["records"] = float64(len(recs))
	res.Counts["slo_missed"] = float64(missed)
	res.Counts["plan_samples"] = float64(len(planAll))
	res.Counts["prices_samples"] = float64(len(tickAll))

	// Settle replication (a no-op single-node), then the final version
	// vector must equal the ticks sent, warm-up included.
	if _, err := st.clients[0].post("/v1/prices?sync=1", nil); err != nil {
		return 0, fmt.Errorf("final flush: %w", err)
	}
	if err := checkVersionVector(res, st.clients[0], res.warm, recs); err != nil {
		return 0, err
	}

	// Digest-checked records: single-shard plans, whose answer depends
	// only on their own connection's earlier ticks. The reference market
	// replays warm-up and schedule in sequence order.
	history := append(append([]rec(nil), res.warm...), recs...)
	var kept []rec
	var keptResults []result
	for i := range recs {
		if recs[i].keep {
			kept = append(kept, recs[i])
			keptResults = append(keptResults, results[i])
		}
	}
	res.Digest = checkPlansAgainstLibrary(res, kept, keptResults, history)

	if g.name == wlCluster {
		// Hop overhead inside one run: a tick the entry node forwards to
		// the shard's owner against a tick it ingests itself. Both are the
		// same single-shard feed; the difference is one forwarded request.
		owned, err := ownedShards(st.dep.nodes[0].ctl)
		if err != nil {
			return 0, err
		}
		var local, forwarded []float64
		for i := range recs {
			if recs[i].Endpoint != epPrices || !results[i].ok() {
				continue
			}
			if owned[recs[i].ticks[0]] {
				local = append(local, msOf(results[i].latNs-results[i].lateNs))
			} else {
				forwarded = append(forwarded, msOf(results[i].latNs-results[i].lateNs))
			}
		}
		if len(local) > 0 && len(forwarded) > 0 {
			res.Layer["cluster.hop_overhead_ms"] = median(forwarded) - median(local)
		}
		res.Counts["ticks_local"] = float64(len(local))
		res.Counts["ticks_forwarded"] = float64(len(forwarded))
		res.Layer["cluster.replication_lag_ms"] = replicationLag(st.dep)
	}
	return float64(good), nil
}
