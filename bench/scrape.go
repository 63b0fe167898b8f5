package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// sample is one /metrics scrape: every series keyed by its full text
// form, labels included, e.g. `sompid_requests_total{endpoint="plan"}`.
type sample map[string]float64

// parseMetrics reads Prometheus text exposition. Comment and blank
// lines are skipped; anything else must be `series value`.
func parseMetrics(text string) (sample, error) {
	out := make(sample)
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space: label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", n+1, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", n+1, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// delta is after − before per series: what the measured window added to
// every counter and histogram. Gauges are meaningless in a delta; read
// those from the after scrape directly. A series absent before counts
// from zero.
func delta(after, before sample) sample {
	out := make(sample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add folds another node's sample into s (cluster runs sum the nodes).
func (s sample) add(o sample) {
	for k, v := range o {
		s[k] += v
	}
}

// family splits a series key into its family name and label text.
func family(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// get returns one series, labels given as `k="v"` pairs in exposition
// order ("" for an unlabeled series).
func (s sample) get(name, labels string) float64 {
	if labels == "" {
		return s[name]
	}
	return s[name+"{"+labels+"}"]
}

// sum adds every series of a family whatever its labels — the total of
// a labeled counter, or of a histogram's _sum or _count across labels.
func (s sample) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if n, _ := family(k); n == name {
			t += v
		}
	}
	return t
}

// mean is a histogram family's _sum over _count across all its labels;
// zero observations yield 0.
func (s sample) mean(hist string) float64 {
	c := s.sum(hist + "_count")
	if c == 0 {
		return 0
	}
	return s.sum(hist+"_sum") / c
}

// quantile resolves q from a histogram's cumulative buckets, summed
// over every label set that contains the labels text (""= all), to the
// upper bound of the bucket holding the target rank. It is the scrape
// side's only bucket-quantized number and is reported under harness./
// serve. layers, never as an end-to-end metric.
func (s sample) quantile(hist, labels string, q float64) float64 {
	byLE := map[float64]float64{}
	for k, v := range s {
		n, lb := family(k)
		if n != hist+"_bucket" || !strings.Contains(lb, labels) {
			continue
		}
		i := strings.Index(lb, `le="`)
		if i < 0 {
			continue
		}
		text := lb[i+4:]
		text = text[:strings.IndexByte(text, '"')]
		le := math.Inf(1)
		if text != "+Inf" {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				continue
			}
			le = f
		}
		byLE[le] += v
	}
	if len(byLE) == 0 {
		return 0
	}
	bounds := make([]float64, 0, len(byLE))
	for le := range byLE {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	total := byLE[bounds[len(bounds)-1]]
	if total == 0 {
		return 0
	}
	for _, le := range bounds {
		if byLE[le] >= q*total {
			if math.IsInf(le, 1) && len(bounds) > 1 {
				return bounds[len(bounds)-2] // overflow: largest finite bound
			}
			return le
		}
	}
	return bounds[len(bounds)-1]
}
