package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"sompi/internal/obs"
)

// Target is one live sompid deployment replay fires at — a single
// instance, or a cluster addressed through any of its nodes.
type Target struct {
	// Name labels the target in reports ("mem", "disk", "cluster", ...).
	Name string `json:"name"`
	// URL is the target's base URL (no trailing slash needed).
	URL string `json:"url"`
	// Fallback lists additional base URLs for the same logical target —
	// the other nodes of a cluster. A request that fails at the
	// transport layer (connection refused, timeout) retries against
	// each fallback in order, so a replay rides through a node being
	// killed mid-run exactly like a client with a node list would.
	Fallback []string `json:"fallback,omitempty"`
}

// Options parameterize a replay run.
type Options struct {
	// Targets are the live instances; one replays, two twin-diffs. At
	// least one is required, at most two are supported.
	Targets []Target
	// Rate is the time-scale multiplier against the capture's own
	// pacing: 1 replays in real time, 10 replays 10x faster, <= 0
	// replays as fast as the targets answer (no pacing).
	Rate float64
	// Concurrency bounds in-flight records; <= 0 means 1. Twin-diff runs
	// over order-sensitive traffic (tracked sessions, ingestion) should
	// keep 1 so both targets observe the capture's exact sequence.
	Concurrency int
	// Timeout bounds each replayed request; <= 0 means 30s.
	Timeout time.Duration
	// Ignore are extra diff ignore rules, merged with DefaultIgnore.
	Ignore []string
	// MaxDiffSamples bounds the detailed diff samples retained in the
	// report (counts are always exact); <= 0 means 20.
	MaxDiffSamples int
	// Client overrides the HTTP client (tests); nil builds one from
	// Timeout.
	Client *http.Client
}

// EndpointReport is one (target, endpoint) aggregate.
type EndpointReport struct {
	Requests int `json:"requests"`
	// Errors counts transport failures and 5xx responses; the error rate
	// the rules gate is Errors/Requests.
	Errors int `json:"errors"`
	// StatusMismatches counts replayed responses whose status differs
	// from the captured one — drift vs the capture-time server.
	StatusMismatches int `json:"status_mismatches"`
	// CacheLookups/CacheHits track the X-Sompid-Cache header, the
	// hit-rate floor input.
	CacheLookups int `json:"cache_lookups,omitempty"`
	CacheHits    int `json:"cache_hits,omitempty"`
	// Latency percentiles in milliseconds, estimated from an obs
	// histogram over the same bucket ladder sompid's own /metrics uses.
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	// QPS is Requests over the replay's wall-clock.
	QPS float64 `json:"qps"`

	hist *obs.Histogram
}

// TargetReport aggregates one target's replay outcome by endpoint.
type TargetReport struct {
	Name      string                     `json:"name"`
	URL       string                     `json:"url"`
	Endpoints map[string]*EndpointReport `json:"endpoints"`
}

// DiffSample is one recorded twin divergence, for the report's humans.
type DiffSample struct {
	Seq      int         `json:"seq"`
	Endpoint string      `json:"endpoint"`
	Path     string      `json:"path"`
	Fields   []FieldDiff `json:"fields"`
}

// Report is a replay run's complete outcome.
type Report struct {
	Records     int            `json:"records"`
	WallSeconds float64        `json:"wall_seconds"`
	Targets     []TargetReport `json:"targets"`
	// FieldDiffs counts records whose twin responses diverged on at
	// least one non-ignored field; PlanDiffs counts /v1/plan records
	// whose twin response bodies were not byte-identical — the
	// twin-equivalence gate. Both stay 0 with a single target.
	FieldDiffs  int          `json:"field_diffs"`
	PlanDiffs   int          `json:"plan_diffs"`
	DiffSamples []DiffSample `json:"diff_samples,omitempty"`
	// TransportErrors counts requests that never produced a response on
	// some target (connection refused, timeout).
	TransportErrors int `json:"transport_errors"`
}

// Replay replays records against opts.Targets and aggregates the
// outcome. Records are dispatched in capture order; with Concurrency >
// 1 later records may overtake slow ones, exactly like real traffic.
func Replay(ctx context.Context, records []Record, opts Options) (*Report, error) {
	if len(opts.Targets) == 0 || len(opts.Targets) > 2 {
		return nil, fmt.Errorf("harness: need 1 or 2 targets, have %d", len(opts.Targets))
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("harness: no records to replay")
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: timeout}
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = 1
	}
	maxSamples := opts.MaxDiffSamples
	if maxSamples <= 0 {
		maxSamples = 20
	}
	ignore := append(append([]string{}, DefaultIgnore...), opts.Ignore...)

	rep := &Report{Records: len(records)}
	for _, t := range opts.Targets {
		rep.Targets = append(rep.Targets, TargetReport{
			Name: t.Name, URL: strings.TrimSuffix(t.URL, "/"),
			Endpoints: make(map[string]*EndpointReport),
		})
	}

	var mu sync.Mutex // guards rep aggregates
	endpointOf := func(rec Record) string {
		if rec.Endpoint != "" {
			return rec.Endpoint
		}
		return rec.Method + " " + strings.SplitN(rec.Path, "?", 2)[0]
	}
	epFor := func(ti int, name string) *EndpointReport {
		ep := rep.Targets[ti].Endpoints[name]
		if ep == nil {
			ep = &EndpointReport{hist: obs.NewHistogram(nil)}
			rep.Targets[ti].Endpoints[name] = ep
		}
		return ep
	}

	type result struct {
		status  int
		body    []byte
		cacheHd string
		err     error
	}
	// fireAt runs one attempt against one base URL.
	fireAt := func(rec Record, base string) (result, float64) {
		var body io.Reader
		if rec.Body != "" {
			body = strings.NewReader(rec.Body)
		}
		req, err := http.NewRequestWithContext(ctx, rec.Method, base+rec.Path, body)
		if err != nil {
			return result{err: err}, 0
		}
		if rec.Body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		// Re-send the captured id: both twin targets then serve the exact
		// request identity the capture saw, and id-echoing responses stay
		// comparable.
		if rec.RequestID != "" {
			req.Header.Set("X-Request-Id", rec.RequestID)
		}
		start := time.Now()
		resp, err := client.Do(req)
		elapsed := time.Since(start).Seconds()
		if err != nil {
			return result{err: err}, elapsed
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return result{err: err}, elapsed
		}
		return result{status: resp.StatusCode, body: b, cacheHd: resp.Header.Get("X-Sompid-Cache")}, elapsed
	}
	// fire walks the target's node list: the primary URL first, then each
	// fallback on a transport failure. An HTTP error status is a served
	// response, not a routing problem — it never triggers a retry.
	fire := func(rec Record, target Target) (result, float64) {
		res, elapsed := fireAt(rec, strings.TrimSuffix(target.URL, "/"))
		for _, alt := range target.Fallback {
			if res.err == nil || ctx.Err() != nil {
				break
			}
			res, elapsed = fireAt(rec, strings.TrimSuffix(alt, "/"))
		}
		return res, elapsed
	}

	replayOne := func(rec Record) {
		name := endpointOf(rec)
		results := make([]result, len(rep.Targets))
		for ti := range rep.Targets {
			res, seconds := fire(rec, opts.Targets[ti])
			results[ti] = res
			mu.Lock()
			ep := epFor(ti, name)
			ep.Requests++
			ep.hist.Observe(seconds)
			switch {
			case res.err != nil:
				ep.Errors++
				rep.TransportErrors++
			case res.status >= 500:
				ep.Errors++
			}
			if res.err == nil && res.status != rec.Status {
				ep.StatusMismatches++
			}
			if res.cacheHd != "" {
				ep.CacheLookups++
				if res.cacheHd == "hit" {
					ep.CacheHits++
				}
			}
			mu.Unlock()
		}
		if len(results) == 2 && results[0].err == nil && results[1].err == nil {
			diffs := DiffJSON(results[0].body, results[1].body, ignore, 8)
			// Explained plans carry wall-clock stage timings, so the
			// byte-identity gate covers only unexplained plan responses;
			// explain still rides the field diff under its ignore rules.
			planDiff := name == "plan" && !strings.Contains(rec.Path, "explain=1") &&
				!bytes.Equal(results[0].body, results[1].body)
			if len(diffs) > 0 || planDiff {
				mu.Lock()
				if len(diffs) > 0 {
					rep.FieldDiffs++
				}
				if planDiff {
					rep.PlanDiffs++
					if len(diffs) == 0 {
						// Byte drift the field walk cannot see (key order,
						// whitespace, an ignored field): still a plan diff.
						diffs = []FieldDiff{{Path: "", A: bodyDigest(results[0].body), B: bodyDigest(results[1].body)}}
					}
				}
				if len(rep.DiffSamples) < maxSamples {
					rep.DiffSamples = append(rep.DiffSamples, DiffSample{
						Seq: rec.Seq, Endpoint: name, Path: rec.Path, Fields: diffs,
					})
				}
				mu.Unlock()
			}
		}
	}

	// Dispatcher: pace by the capture's own clock scaled by Rate, fan
	// out to a bounded worker pool.
	work := make(chan Record)
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec := range work {
				replayOne(rec)
			}
		}()
	}
	begin := time.Now()
	base := records[0].TimeMS
dispatch:
	for _, rec := range records {
		if opts.Rate > 0 {
			due := time.Duration((rec.TimeMS - base) / opts.Rate * float64(time.Millisecond))
			if wait := due - time.Since(begin); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					break dispatch
				}
			}
		}
		select {
		case work <- rec:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	rep.WallSeconds = time.Since(begin).Seconds()

	// Resolve percentiles and rates now that the histograms are final.
	for ti := range rep.Targets {
		for _, ep := range rep.Targets[ti].Endpoints {
			ep.P50MS = ep.hist.Quantile(0.50) * 1000
			ep.P90MS = ep.hist.Quantile(0.90) * 1000
			ep.P99MS = ep.hist.Quantile(0.99) * 1000
			if rep.WallSeconds > 0 {
				ep.QPS = float64(ep.Requests) / rep.WallSeconds
			}
		}
	}
	sort.Slice(rep.DiffSamples, func(i, j int) bool { return rep.DiffSamples[i].Seq < rep.DiffSamples[j].Seq })
	if err := ctx.Err(); err != nil {
		return rep, fmt.Errorf("harness: replay interrupted: %w", err)
	}
	return rep, nil
}

// bodyDigest renders a response body's identity for diff samples.
func bodyDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("sha256:%s (%d bytes)", hex.EncodeToString(sum[:8]), len(b))
}

// QPS is the run's overall throughput: records over wall time.
func (rep *Report) QPS() float64 {
	if rep.WallSeconds <= 0 {
		return 0
	}
	return float64(rep.Records) / rep.WallSeconds
}

// HitRate reports a target's plan-cache hit rate across endpoints;
// ok is false when the replay observed no cache lookups at all.
func (t TargetReport) HitRate() (rate float64, ok bool) {
	lookups, hits := 0, 0
	for _, ep := range t.Endpoints {
		lookups += ep.CacheLookups
		hits += ep.CacheHits
	}
	if lookups == 0 {
		return 0, false
	}
	return float64(hits) / float64(lookups), true
}
