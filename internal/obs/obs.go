// Package obs is the repo's dependency-free observability layer:
// context-propagated spans collected into a bounded in-memory ring (the
// flight recorder behind GET /debug/trace), fixed-bucket latency
// histograms with quantile estimation (internal/serve's /metrics), and
// leveled structured logging in text or NDJSON.
//
// The design constraint is that *uninstrumented* callers pay nothing: a
// context without a Collector makes StartSpan return a nil *Span, every
// method on a nil *Span is a no-op, and the fast path performs no
// allocations and no clock reads (TestDisabledPathZeroAlloc holds every
// disabled span site at zero allocations, and opt's TestOptimizeSpans
// keeps span sites out of the κ-subset search loops). Instrumented paths
// pay one small allocation per span plus a mutex-guarded ring push at
// End.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRing is the span ring capacity a zero Config gets: enough to
// hold the full span tree of a few hundred requests.
const DefaultRing = 4096

// idPrefix makes request and trace IDs unique across processes; the
// per-process counter makes them unique within one.
var (
	idPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// The clock is a fine fallback for an ID prefix; collisions
			// only blur trace grouping, they cannot corrupt state.
			return strconv.FormatInt(time.Now().UnixNano()&0xffffffff, 16)
		}
		return hex.EncodeToString(b[:])
	}()
	idSeq atomic.Uint64
)

// NewRequestID returns a process-unique request identifier, used as the
// trace ID for every span a request produces.
func NewRequestID() string {
	return fmt.Sprintf("r%s-%06d", idPrefix, idSeq.Add(1))
}

// Attr is one key/value annotation on a span. Values are strings on
// purpose: spans are a debugging trail, not a metrics pipeline, and a
// single concrete type keeps SpanData trivially JSON-encodable.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is one completed span as stored in the ring and rendered by
// /debug/trace. SpanID/ParentID let a client rebuild the tree; TraceID
// groups every span of one request (or one offline optimization).
type SpanData struct {
	TraceID    string    `json:"trace_id"`
	SpanID     uint64    `json:"span_id"`
	ParentID   uint64    `json:"parent_id,omitempty"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationNs int64     `json:"duration_ns"`
	Err        string    `json:"error,omitempty"`
	Attrs      []Attr    `json:"attrs,omitempty"`
}

// Span is one in-flight operation. A nil *Span is the disabled state:
// every method no-ops, so call sites never branch. A span belongs to the
// goroutine that started it — annotate and End from that goroutine only
// (children started elsewhere are their own spans).
type Span struct {
	c    *Collector
	data SpanData
	done bool
}

// AttrStr annotates the span with a string value.
func (s *Span) AttrStr(key, value string) {
	if s == nil || s.done {
		return
	}
	s.data.Attrs = append(s.data.Attrs, Attr{key, value})
}

// AttrInt annotates the span with an integer value.
func (s *Span) AttrInt(key string, value int64) {
	if s == nil || s.done {
		return
	}
	s.data.Attrs = append(s.data.Attrs, Attr{key, strconv.FormatInt(value, 10)})
}

// AttrFloat annotates the span with a float value.
func (s *Span) AttrFloat(key string, value float64) {
	if s == nil || s.done {
		return
	}
	s.data.Attrs = append(s.data.Attrs, Attr{key, strconv.FormatFloat(value, 'g', -1, 64)})
}

// Fail records the span's error.
func (s *Span) Fail(err error) {
	if s == nil || s.done || err == nil {
		return
	}
	s.data.Err = err.Error()
}

// End stamps the duration and pushes the span into the collector's ring.
// End is idempotent; a span that is never ended is simply never recorded.
func (s *Span) End() {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.data.DurationNs = time.Since(s.data.Start).Nanoseconds()
	s.c.ring.push(s.data)
}

// TraceID reports the span's trace grouping ID ("" for a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.data.TraceID
}

// Collector owns the span ring. One collector serves a whole process;
// handing it to a context (WithCollector) turns span recording on for
// everything downstream of that context.
type Collector struct {
	ring    spanRing
	spanSeq atomic.Uint64
}

// NewCollector builds a collector whose ring retains the most recent
// capacity spans (capacity <= 0 means DefaultRing).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultRing
	}
	c := &Collector{}
	c.ring.buf = make([]SpanData, capacity)
	return c
}

// newSpan starts a span, inheriting trace and parent IDs from parent
// when present and minting a fresh trace ID otherwise.
func (c *Collector) newSpan(name string, parent *Span) *Span {
	sp := &Span{c: c}
	sp.data.SpanID = c.spanSeq.Add(1)
	sp.data.Name = name
	sp.data.Start = time.Now()
	if parent != nil {
		sp.data.TraceID = parent.data.TraceID
		sp.data.ParentID = parent.data.SpanID
	} else {
		sp.data.TraceID = NewRequestID()
	}
	return sp
}

// RecordSpan records an already-completed span directly — for
// instrumentation points that have a start time but no context to thread
// (e.g. the snapshot cut and recovery, which run outside any request).
func (c *Collector) RecordSpan(name string, start time.Time, attrs ...Attr) {
	if c == nil {
		return
	}
	c.ring.push(SpanData{
		TraceID:    NewRequestID(),
		SpanID:     c.spanSeq.Add(1),
		Name:       name,
		Start:      start,
		DurationNs: time.Since(start).Nanoseconds(),
		Attrs:      attrs,
	})
}

// Total reports how many spans have ever been recorded (the ring keeps
// only the most recent capacity of them).
func (c *Collector) Total() uint64 {
	if c == nil {
		return 0
	}
	return c.ring.total()
}

// Spans returns up to limit of the most recent completed spans, oldest
// first, optionally filtered to one trace ID (traceID == "" means all).
// limit <= 0 means the whole ring.
func (c *Collector) Spans(traceID string, limit int) []SpanData {
	if c == nil {
		return nil
	}
	all := c.ring.snapshot()
	if traceID != "" {
		kept := all[:0]
		for _, sd := range all {
			if sd.TraceID == traceID {
				kept = append(kept, sd)
			}
		}
		all = kept
	}
	if limit > 0 && len(all) > limit {
		all = all[len(all)-limit:]
	}
	return all
}

// spanRing is a fixed-capacity circular buffer of completed spans. Push
// is a mutex-guarded copy: spans are small and the lock is held for a
// few stores, so even ingest-rate recording does not contend measurably.
type spanRing struct {
	mu    sync.Mutex
	buf   []SpanData
	next  int
	count uint64 // total pushes ever
}

func (r *spanRing) push(sd SpanData) {
	r.mu.Lock()
	r.buf[r.next] = sd
	r.next = (r.next + 1) % len(r.buf)
	r.count++
	r.mu.Unlock()
}

func (r *spanRing) total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// snapshot copies the retained spans, oldest first.
func (r *spanRing) snapshot() []SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	if r.count < uint64(n) {
		n = int(r.count)
		out := make([]SpanData, n)
		copy(out, r.buf[:n])
		return out
	}
	out := make([]SpanData, 0, n)
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
