package main

import (
	"math"
	"testing"
)

const scrapeBefore = `# HELP sompid_requests_total Requests served, by endpoint.
# TYPE sompid_requests_total counter
sompid_requests_total{endpoint="plan"} 10
sompid_requests_total{endpoint="prices"} 100
sompid_plan_cache_hits_total 4
sompid_request_seconds_bucket{endpoint="plan",le="0.001"} 2
sompid_request_seconds_bucket{endpoint="plan",le="0.01"} 6
sompid_request_seconds_bucket{endpoint="plan",le="+Inf"} 10
sompid_request_seconds_sum{endpoint="plan"} 0.5
sompid_request_seconds_count{endpoint="plan"} 10
sompid_scheduler_lag_seconds_bucket{le="0.001"} 0
sompid_scheduler_lag_seconds_bucket{le="+Inf"} 0
sompid_scheduler_lag_seconds_sum 0
sompid_scheduler_lag_seconds_count 0
sompid_ingest_queue_peak_depth 3
sompid_build_info{version="a b",go_version="go1.24.0"} 1
`

const scrapeAfter = `sompid_requests_total{endpoint="plan"} 30
sompid_requests_total{endpoint="prices"} 400
sompid_plan_cache_hits_total 9
sompid_request_seconds_bucket{endpoint="plan",le="0.001"} 2
sompid_request_seconds_bucket{endpoint="plan",le="0.01"} 21
sompid_request_seconds_bucket{endpoint="plan",le="+Inf"} 30
sompid_request_seconds_sum{endpoint="plan"} 2.5
sompid_request_seconds_count{endpoint="plan"} 30
sompid_scheduler_lag_seconds_bucket{le="0.001"} 90
sompid_scheduler_lag_seconds_bucket{le="+Inf"} 100
sompid_scheduler_lag_seconds_sum 0.2
sompid_scheduler_lag_seconds_count 100
sompid_ingest_queue_peak_depth 7
sompid_new_family_total 5
sompid_build_info{version="a b",go_version="go1.24.0"} 1
`

func TestMetricsDelta(t *testing.T) {
	before, err := parseMetrics(scrapeBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(scrapeAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := delta(after, before)
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	// Labeled counters, one series and the family total.
	near("plan requests", d.get("sompid_requests_total", `endpoint="plan"`), 20)
	near("all requests", d.sum("sompid_requests_total"), 320)
	near("unlabeled counter", d.get("sompid_plan_cache_hits_total", ""), 5)
	near("series absent before", d.get("sompid_new_family_total", ""), 5)
	// A label value with a space still parses: the value is after the last space.
	near("build info", after.get("sompid_build_info", `version="a b",go_version="go1.24.0"`), 1)
	// Histogram _sum/_count and the mean of the window.
	near("plan busy", d.get("sompid_request_seconds_sum", `endpoint="plan"`), 2)
	near("plan mean", d.mean("sompid_request_seconds"), 0.1)
	near("empty histogram mean", before.mean("sompid_scheduler_lag_seconds"), 0)
	// Quantiles from the window's buckets: 0, 15 and 20 of 20 cumulative.
	near("plan p50", d.quantile("sompid_request_seconds", `endpoint="plan"`, 0.5), 0.01)
	near("plan p99 overflows to the largest finite bound", d.quantile("sompid_request_seconds", `endpoint="plan"`, 0.99), 0.01)
	near("lag p50", d.quantile("sompid_scheduler_lag_seconds", "", 0.5), 0.001)
	near("no such histogram", d.quantile("sompid_nothing_seconds", "", 0.5), 0)
	// Gauges come from the after scrape, not the delta.
	near("gauge", after.get("sompid_ingest_queue_peak_depth", ""), 7)

	sum := make(sample)
	sum.add(before)
	sum.add(before)
	near("two nodes summed", sum.get("sompid_plan_cache_hits_total", ""), 8)
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, text := range []string{"novalue\n", "sompid_x notanumber\n"} {
		if _, err := parseMetrics(text); err == nil {
			t.Errorf("parseMetrics(%q) accepted garbage", text)
		}
	}
}
