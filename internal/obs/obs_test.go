package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	c := NewCollector(16)
	ctx, root := StartRoot(context.Background(), c, "http.plan", "req-1")
	if root == nil {
		t.Fatal("root span is nil with a collector installed")
	}
	ctx2, child := StartSpan(ctx, "opt.optimize")
	child.AttrInt("evals", 42)
	child.AttrFloat("cost", 1.5)
	child.AttrStr("stage", "search")
	_, grand := StartSpan(ctx2, "opt.search.worker")
	grand.Fail(errors.New("boom"))
	grand.End()
	child.End()
	root.End()

	spans := c.Spans("req-1", 0)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	// Ring order is completion order: grand, child, root.
	g, ch, r := spans[0], spans[1], spans[2]
	if r.ParentID != 0 || ch.ParentID != r.SpanID || g.ParentID != ch.SpanID {
		t.Fatalf("parent chain broken: root=%+v child=%+v grand=%+v", r, ch, g)
	}
	for _, sd := range spans {
		if sd.TraceID != "req-1" {
			t.Fatalf("span %q trace %q, want req-1", sd.Name, sd.TraceID)
		}
		if sd.DurationNs < 0 {
			t.Fatalf("span %q negative duration", sd.Name)
		}
	}
	if g.Err != "boom" {
		t.Fatalf("grandchild error %q, want boom", g.Err)
	}
	if len(ch.Attrs) != 3 || ch.Attrs[0] != (Attr{"evals", "42"}) {
		t.Fatalf("child attrs %+v", ch.Attrs)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	c := NewCollector(8)
	_, sp := StartRoot(context.Background(), c, "x", "")
	sp.End()
	sp.End()
	sp.AttrStr("after", "end") // must not land
	if got := c.Total(); got != 1 {
		t.Fatalf("double End recorded %d spans, want 1", got)
	}
	if spans := c.Spans("", 0); len(spans[0].Attrs) != 0 {
		t.Fatalf("attr after End landed: %+v", spans[0].Attrs)
	}
}

func TestRingBounds(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 10; i++ {
		_, sp := StartRoot(context.Background(), c, fmt.Sprintf("s%d", i), "t")
		sp.End()
	}
	if c.Total() != 10 {
		t.Fatalf("total %d, want 10", c.Total())
	}
	spans := c.Spans("", 0)
	if len(spans) != 4 {
		t.Fatalf("retained %d, want ring capacity 4", len(spans))
	}
	for i, sd := range spans {
		if want := fmt.Sprintf("s%d", 6+i); sd.Name != want {
			t.Fatalf("ring order: span %d is %q, want %q", i, sd.Name, want)
		}
	}
	if got := c.Spans("", 2); len(got) != 2 || got[1].Name != "s9" {
		t.Fatalf("limit 2 returned %+v, want the 2 newest", got)
	}
}

func TestSpansFilterByTrace(t *testing.T) {
	c := NewCollector(16)
	for _, id := range []string{"a", "b", "a"} {
		_, sp := StartRoot(context.Background(), c, "op", id)
		sp.End()
	}
	if got := len(c.Spans("a", 0)); got != 2 {
		t.Fatalf("filter a: %d spans, want 2", got)
	}
	if got := len(c.Spans("nope", 0)); got != 0 {
		t.Fatalf("filter nope: %d spans, want 0", got)
	}
}

// TestDisabledPathZeroAlloc is half of the overhead contract (DESIGN §16
// O1): with no collector in the context, starting spans and annotating
// them allocates nothing at all. TestOptimizeSpans in internal/opt
// bounds how many such sites a plan passes.
func TestDisabledPathZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, sp := StartSpan(ctx, "opt.optimize")
		sp.AttrInt("evals", 7)
		sp.AttrStr("k", "v")
		sp.Fail(nil)
		sp.End()
		_, sp2 := StartSpan(ctx2, "child")
		sp2.End()
		if CollectorFrom(ctx2) != nil {
			t.Fatal("collector appeared from nowhere")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v per op, want 0", allocs)
	}
}

func TestNilCollectorHelpers(t *testing.T) {
	var c *Collector
	if c.Spans("", 0) != nil || c.Total() != 0 {
		t.Fatal("nil collector must report nothing")
	}
	c.RecordSpan("x", time.Now()) // must not panic
	if ctx, sp := StartRoot(context.Background(), nil, "x", "t"); sp != nil || CollectorFrom(ctx) != nil {
		t.Fatal("StartRoot with nil collector must stay disabled")
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-106.5) > 1e-9 {
		t.Fatalf("sum %v, want 106.5", h.Sum())
	}

	var b bytes.Buffer
	h.WriteProm(&b, "m", `endpoint="plan"`)
	out := b.String()
	for _, want := range []string{
		`m_bucket{endpoint="plan",le="1"} 1`,
		`m_bucket{endpoint="plan",le="2"} 3`,
		`m_bucket{endpoint="plan",le="4"} 4`,
		`m_bucket{endpoint="plan",le="+Inf"} 5`,
		`m_sum{endpoint="plan"} 106.5`,
		`m_count{endpoint="plan"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	var nb bytes.Buffer
	h.WriteProm(&nb, "m", "")
	if !strings.Contains(nb.String(), "m_count 5\n") || !strings.Contains(nb.String(), `m_bucket{le="+Inf"} 5`) {
		t.Fatalf("unlabeled exposition wrong:\n%s", nb.String())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(nil)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
	// 100 observations at 0.03s land in the (0.025, 0.05] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.03)
	}
	q := h.Quantile(0.5)
	if q <= 0.025 || q > 0.05 {
		t.Fatalf("median %v outside the observed bucket (0.025, 0.05]", q)
	}
	if q99 := h.Quantile(0.99); q99 < q {
		t.Fatalf("q99 %v below median %v", q99, q)
	}
	// Overflow observations report the largest finite bound.
	h2 := NewHistogram([]float64{1})
	h2.Observe(50)
	if got := h2.Quantile(0.5); got != 1 {
		t.Fatalf("overflow quantile %v, want clamped to 1", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8.0) > 1e-6 {
		t.Fatalf("sum %v, want 8.0", h.Sum())
	}
}

func TestLoggerNDJSON(t *testing.T) {
	var b bytes.Buffer
	l := NewLogger(&b, LevelInfo, FormatNDJSON)
	l.Debug("dropped", "k", 1)
	l.Info("starting", "addr", ":8377", "retain", 96.5, "ok", true)
	l.Error("bad", "odd")

	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2 (debug filtered):\n%s", len(lines), b.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line is not JSON: %v\n%s", err, lines[0])
	}
	if rec["level"] != "info" || rec["msg"] != "starting" || rec["addr"] != ":8377" || rec["retain"] != 96.5 || rec["ok"] != true {
		t.Fatalf("ndjson record %+v", rec)
	}
	if _, err := time.Parse(time.RFC3339Nano, rec["ts"].(string)); err != nil {
		t.Fatalf("ts %v not RFC3339: %v", rec["ts"], err)
	}
	var rec2 map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &rec2); err != nil {
		t.Fatalf("odd-kv line is not JSON: %v\n%s", err, lines[1])
	}
	if rec2["!BADKEY"] != "odd" {
		t.Fatalf("odd trailing value lost: %+v", rec2)
	}
}

func TestLoggerText(t *testing.T) {
	var b bytes.Buffer
	l := NewLogger(&b, LevelWarn, FormatText)
	l.Info("dropped")
	l.Warn("watch out", "market", "m1.small/us-east-1a", "n", 3)
	out := b.String()
	if !strings.Contains(out, "WARN") || !strings.Contains(out, "watch out") ||
		!strings.Contains(out, "market=m1.small/us-east-1a") || !strings.Contains(out, "n=3") {
		t.Fatalf("text line %q", out)
	}
	if strings.Contains(out, "dropped") {
		t.Fatalf("info line leaked past warn level: %q", out)
	}
}

func TestNilLogger(t *testing.T) {
	var l *Logger
	l.Info("nothing happens") // must not panic
	if l.Enabled(LevelError) {
		t.Fatal("nil logger claims to be enabled")
	}
}

func TestParseLevelFormat(t *testing.T) {
	if lv, err := ParseLevel("WARN"); err != nil || lv != LevelWarn {
		t.Fatalf("ParseLevel(WARN) = %v, %v", lv, err)
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel(loud) must fail")
	}
	if f, err := ParseFormat("ndjson"); err != nil || f != FormatNDJSON {
		t.Fatalf("ParseFormat(ndjson) = %v, %v", f, err)
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("ParseFormat(xml) must fail")
	}
}

// BenchmarkSpanDisabled documents the nil fast path's cost; what bounds
// it per plan is internal/opt's TestOptimizeSpans count.
func BenchmarkSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "op")
		sp.AttrInt("i", int64(i))
		sp.End()
	}
}

// BenchmarkSpanEnabled is the instrumented path: one span allocation
// plus a ring push.
func BenchmarkSpanEnabled(b *testing.B) {
	c := NewCollector(1024)
	ctx := WithCollector(context.Background(), c)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "op")
		sp.AttrInt("i", int64(i))
		sp.End()
	}
}
