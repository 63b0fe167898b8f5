package harness

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// MetricValue extracts an unlabeled gauge or counter from /metrics
// exposition text.
func MetricValue(text, name string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", name, err)
			}
			return f, nil
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// HistogramQuantile resolves a quantile to its upper bucket bound from
// an unlabeled histogram's cumulative buckets (+Inf maps to math.Inf).
func HistogramQuantile(text, family string, q float64) (float64, error) {
	type bucket struct{ le, count float64 }
	var buckets []bucket
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, family+`_bucket{le="`)
		if !ok {
			continue
		}
		bound, count, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		le := math.Inf(1)
		if bound != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(bound, 64); err != nil {
				return 0, fmt.Errorf("parsing %s bucket bound %q: %w", family, bound, err)
			}
		}
		n, err := strconv.ParseFloat(strings.TrimSpace(count), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s bucket count: %w", family, err)
		}
		buckets = append(buckets, bucket{le, n})
	}
	if len(buckets) == 0 {
		return 0, fmt.Errorf("/metrics has no %s buckets", family)
	}
	total := buckets[len(buckets)-1].count
	if total == 0 {
		return 0, fmt.Errorf("%s recorded no observations", family)
	}
	for _, b := range buckets {
		if b.count >= q*total {
			return b.le, nil
		}
	}
	return math.Inf(1), nil
}
