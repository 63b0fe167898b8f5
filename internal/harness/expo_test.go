package harness

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

const expoFixture = `# HELP sompid_reopt_deduped_total Re-optimizations answered by another session's run.
# TYPE sompid_reopt_deduped_total counter
sompid_reopt_deduped_total 3
sompid_reopt_deduped_total_shadow 99
sompid_shard_version{market="m1.small/us-east-1a"} 7
# TYPE sompid_scheduler_lag_seconds histogram
sompid_scheduler_lag_seconds_bucket{le="0.005"} 90
sompid_scheduler_lag_seconds_bucket{le="0.25"} 99
sompid_scheduler_lag_seconds_bucket{le="+Inf"} 100
sompid_scheduler_lag_seconds_sum 1.5
sompid_scheduler_lag_seconds_count 100
sompid_idle_seconds_bucket{le="1"} 0
sompid_idle_seconds_bucket{le="+Inf"} 0
`

func TestMetricValue(t *testing.T) {
	if v, err := MetricValue(expoFixture, "sompid_reopt_deduped_total"); err != nil || v != 3 {
		t.Fatalf("unlabeled counter = %v, %v; want 3 (a longer name sharing the prefix must not match)", v, err)
	}
	for _, name := range []string{"sompid_shard_version", "sompid_absent_total"} {
		if _, err := MetricValue(expoFixture, name); err == nil {
			t.Errorf("%s: labeled or absent series must be an error, not 0", name)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	for q, want := range map[float64]float64{0.5: 0.005, 0.9: 0.005, 0.99: 0.25, 1: math.Inf(1)} {
		if got, err := HistogramQuantile(expoFixture, "sompid_scheduler_lag_seconds", q); err != nil || got != want {
			t.Errorf("q=%v: %v, %v; want bucket bound %v", q, got, err, want)
		}
	}
	for _, family := range []string{"sompid_idle_seconds", "sompid_absent_seconds"} {
		if _, err := HistogramQuantile(expoFixture, family, 0.99); err == nil {
			t.Errorf("%s: an empty or absent histogram must be an error", family)
		}
	}
}

func TestEventually(t *testing.T) {
	calls := 0
	err := Eventually(5*time.Second, "third call", func() error {
		if calls++; calls < 3 {
			return errors.New("not yet")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Eventually returned %v after %d calls", err, calls)
	}
	err = Eventually(0, "never", func() error { return errors.New("still down") })
	if err == nil || !strings.Contains(err.Error(), "never") || !strings.Contains(err.Error(), "still down") {
		t.Fatalf("timeout error %v must name the condition and carry the last failure", err)
	}
}
