package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestManifestIsValidAndCommitted(t *testing.T) {
	m := buildManifest()
	if err := m.validate(); err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Errorf("BENCHMARK.json differs from the catalog: regenerate it with `go run -C bench . -manifest > BENCHMARK.json`")
	}
	// The file holds exactly the contract's keys, nothing of the catalog's own.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(got, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want 6", len(raw))
	}
	var layers []map[string]any
	if err := json.Unmarshal(raw["per_layer"], &layers); err != nil {
		t.Fatal(err)
	}
	for _, l := range layers {
		if len(l) != 3 {
			t.Errorf("per_layer entry %v has %d keys, want name, unit, better", l["name"], len(l))
		}
	}
}

func TestManifestGrammarAndCaps(t *testing.T) {
	for _, ok := range []string{"a", "plan-miss", "serve.request_busy_s.plan", "0x", "A_b.c-d", strings.Repeat("a", 64)} {
		if !nameRE.MatchString(ok) {
			t.Errorf("name %q rejected", ok)
		}
	}
	for _, bad := range []string{"", "-x", ".x", "_x", "a b", "a/b", "a%", "é", strings.Repeat("a", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "count", "%", "ops/s", "MB"} {
		if !unitRE.MatchString(ok) {
			t.Errorf("unit %q rejected", ok)
		}
	}
	for _, bad := range []string{"", "m s", "µs", strings.Repeat("u", 17)} {
		if unitRE.MatchString(bad) {
			t.Errorf("unit %q accepted", bad)
		}
	}

	breakIt := func(why string, mutate func(*manifest)) {
		t.Helper()
		m := buildManifest()
		m.Workloads = append([]workloadInfo(nil), m.Workloads...)
		m.EndToEnd = append([]e2eMetric(nil), m.EndToEnd...)
		m.PerLayer = append([]layerMetric(nil), m.PerLayer...)
		mutate(&m)
		if err := m.validate(); err == nil {
			t.Errorf("validate accepted a manifest with %s", why)
		}
	}
	breakIt("nine workloads", func(m *manifest) {
		for i := 0; len(m.Workloads) <= maxWorkloads; i++ {
			m.Workloads = append(m.Workloads, workloadInfo{Name: "w" + string(rune('a'+i)), Why: "x"})
		}
	})
	breakIt("one workload", func(m *manifest) { m.Workloads = m.Workloads[:1] })
	breakIt("seventeen end-to-end metrics", func(m *manifest) {
		for i := 0; len(m.EndToEnd) <= maxE2E; i++ {
			m.EndToEnd = append(m.EndToEnd, e2eMetric{Name: "e" + string(rune('a'+i)), Unit: "s", Better: "lower", Bound: 0.1})
		}
	})
	breakIt("129 per-layer metrics", func(m *manifest) {
		for i := 0; len(m.PerLayer) <= maxLayer; i++ {
			m.PerLayer = append(m.PerLayer, layerMetric{Name: "l." + strings.Repeat("x", i+1)[:min(i+1, 60)] + string(rune('a'+i%26)), Unit: "s", Better: "lower"})
		}
	})
	breakIt("a duplicate name", func(m *manifest) { m.PerLayer[0].Name = m.EndToEnd[0].Name })
	breakIt("a bound above 0.25", func(m *manifest) { m.EndToEnd[1].Bound = 0.3 })
	breakIt("no setup_s", func(m *manifest) { m.EndToEnd[0].Name = "boot_s" })
	breakIt("a two-line why", func(m *manifest) { m.Workloads[0].Why = "a\nb" })
	breakIt("a 201-character why", func(m *manifest) { m.Workloads[0].Why = strings.Repeat("y", 201) })
	breakIt("a bad better", func(m *manifest) { m.PerLayer[0].Better = "faster" })
	breakIt("run_seconds 61", func(m *manifest) { m.RunSeconds = 61 })
}

func TestEveryLayerMetricNamesWhatItMoves(t *testing.T) {
	known := map[string]bool{"": true}
	for _, w := range workloadNames {
		known[w] = true
	}
	for _, l := range layerCatalog {
		if l.moves == "" {
			t.Errorf("%s names no end-to-end metric and workload it should move", l.Name)
		}
		if !known[l.home] || !known[l.not] {
			t.Errorf("%s: unknown workload in home %q / not %q", l.Name, l.home, l.not)
		}
		if (l.source == "probe") != (l.home == "") {
			t.Errorf("%s: source %q with home %q — only probes have no home workload", l.Name, l.source, l.home)
		}
		switch l.source {
		case "probe", "scrape", "trace", "harness":
		default:
			t.Errorf("%s: unknown source %q", l.Name, l.source)
		}
	}
}

func TestIssueNames(t *testing.T) {
	for _, c := range []struct{ workload, metric, want string }{
		{wlPlanMiss, "op_p50_ms", "plan_p50_ms"},
		{wlIngest, "op_p50_ms", "prices_p50_ms"},
		{wlBoundary, "op_p50_ms", "boundary_drain_p50_ms"},
		{wlCluster, "harness.op_p95_ms", "plan_p95_ms"},
		{wlIngest, "harness.op_p95_ms", ""},
		{wlMixed, "harness.slo_miss_rate", "slo_miss_rate"},
		{wlPlanMiss, "harness.slo_miss_rate", ""},
		{wlBoundary, "harness.error_rate", "error_rate"},
		{wlMixed, "setup_s", ""},
	} {
		if got := issueName(c.workload, c.metric); got != c.want {
			t.Errorf("issueName(%s, %s) = %q, want %q", c.workload, c.metric, got, c.want)
		}
	}
}

func TestBareTrace(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"-trace", "-trace=1"},
		{"--trace 0 --seed 3", "--trace 0 --seed 3"},
		{"--workload x --trace 1", "--workload x --trace 1"},
		{"-trace -seed 3", "-trace=1 -seed 3"},
		{"-selfcheck", "-selfcheck"},
	} {
		if got := strings.Join(bareTrace(strings.Fields(c.in)), " "); got != c.want {
			t.Errorf("bareTrace(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
