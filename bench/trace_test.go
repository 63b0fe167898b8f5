package main

import (
	"testing"
	"time"

	"sompi/internal/obs"
)

func span(id, parent uint64, startMS, durMS int) obs.SpanData {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return obs.SpanData{
		TraceID: "t", SpanID: id, ParentID: parent, Name: "s",
		Start: t0.Add(time.Duration(startMS) * time.Millisecond), DurationNs: int64(durMS) * 1e6,
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []obs.SpanData{
		span(1, 0, 0, 100), // root
		span(2, 1, 10, 30), // [10,40)
		span(3, 1, 30, 30), // [30,60) overlaps 2: union [10,60) = 50
		span(4, 1, 80, 40), // [80,120) sticks out: clipped to [80,100) = 20
		span(5, 2, 10, 10), // grandchild: counts against 2 only
		span(6, 0, 0, 5),   // a second root with no children
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{
		1: 30 * time.Millisecond, // 100 - 50 - 20
		2: 20 * time.Millisecond, // 30 - 10
		3: 30 * time.Millisecond,
		4: 40 * time.Millisecond,
		5: 10 * time.Millisecond,
		6: 5 * time.Millisecond,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestClipToParentsMakesSelfTimesAddUp(t *testing.T) {
	spans := []obs.SpanData{
		span(3, 2, 0, 70), // grandchild listed first, as the ring lists it
		span(1, 0, 0, 50), // top rung
		span(2, 1, 0, 60), // its child twin ran longer
		span(4, 2, 70, 5), // starts after the clipped parent ends
	}
	clipToParents(spans)
	var sum time.Duration
	for _, d := range selfTimes(spans) {
		if d < 0 {
			t.Fatalf("negative self time %v", d)
		}
		sum += d
	}
	if sum != 50*time.Millisecond {
		t.Errorf("self times sum to %v, want the top rung's 50ms", sum)
	}
	if spans[2].DurationNs != 50e6 || spans[0].DurationNs != 50e6 || spans[3].DurationNs != 0 {
		t.Errorf("clipped durations %d %d %d, want 50ms 50ms 0", spans[2].DurationNs, spans[0].DurationNs, spans[3].DurationNs)
	}
}

// TestNestJudgesTheTwinsBeforeTheClip builds one record's ladder whose
// handler twin outran the HTTP twin: the excess and the paired self
// times come from the durations as measured, the span file from the
// clipped ones.
func TestNestJudgesTheTwinsBeforeTheClip(t *testing.T) {
	named := func(sp obs.SpanData, name string) obs.SpanData { sp.Name = name; return sp }
	top := named(span(1, 0, 0, 50), "rung.http")
	top.Attrs = []obs.Attr{{Key: "endpoint", Value: epPlan}}
	res := nest([]obs.SpanData{
		top,
		named(span(2, 0, 100, 60), "rung.handler"),
		named(span(3, 0, 200, 58), "rung.layers"),
		named(span(4, 3, 201, 55), "opt.optimize"),
	})
	if res.RequestNs != 50e6 || res.HandlerNs != 60e6 || res.LayerNs != 55e6 {
		t.Errorf("request %d handler %d layer %d ns, want 50, 60, 55 ms", res.RequestNs, res.HandlerNs, res.LayerNs)
	}
	if res.ExcessNs != 10e6 {
		t.Errorf("excess %d ns, want the 10 ms the handler twin outran the HTTP twin by", res.ExcessNs)
	}
	if got := res.layer["serve.plan_miss_self_us"]; got != 5000 {
		t.Errorf("plan_miss_self_us = %v, want 5000 (handler 60 ms - opt 55 ms)", got)
	}
	if got := res.layer["harness.http_self_us"]; got != -10000 {
		t.Errorf("http_self_us = %v, want -10000: a paired difference is not floored", got)
	}
	var sum int64
	for _, ns := range res.SelfNs {
		sum += ns
	}
	if sum != 50e6 || len(res.Spans) != 3 {
		t.Errorf("span file: %d spans whose self times sum to %d ns, want 3 and the top rung's 50 ms", len(res.Spans), sum)
	}
}
