package trace

import "testing"

// seqTrace builds a trace whose i-th sample equals i, so any index
// arithmetic error shows up as a wrong price.
func seqTrace(n int) *Trace {
	p := make([]float64, n)
	for i := range p {
		p[i] = float64(i)
	}
	return New(DefaultStep, p)
}

func TestCompactPreservesAbsoluteClock(t *testing.T) {
	full := seqTrace(240) // 20 hours at the default 5-minute step
	c := full.Compact(60) // drop the first 5 hours

	if c.Head != 60 || c.Len() != 180 {
		t.Fatalf("compacted head %d len %d, want 60/180", c.Head, c.Len())
	}
	if c.Duration() != full.Duration() {
		t.Fatalf("compaction moved the frontier: %v -> %v", full.Duration(), c.Duration())
	}
	// Absolute lookups in the retained range are untouched.
	for _, hour := range []float64{5, 7.25, 12, 19.9} {
		if got, want := c.At(hour), full.At(hour); got != want {
			t.Errorf("At(%v) = %v after compaction, want %v", hour, got, want)
		}
	}
	// Lookups before the retained range clamp to the oldest survivor
	// instead of indexing out of bounds.
	if got := c.At(0); got != 60 {
		t.Errorf("At(0) on compacted trace = %v, want clamp to sample 60", got)
	}
	// The receiver is untouched.
	if full.Head != 0 || full.Len() != 240 {
		t.Fatalf("Compact mutated its receiver: head %d len %d", full.Head, full.Len())
	}
}

func TestCompactClamps(t *testing.T) {
	tr := seqTrace(10)
	if got := tr.Compact(0); got != tr {
		t.Error("Compact(0) should be a no-op returning the receiver")
	}
	if got := tr.Compact(-3); got != tr {
		t.Error("negative n should be a no-op")
	}
	all := tr.Compact(99)
	if all.Len() != 0 || all.Head != 10 || all.Duration() != tr.Duration() {
		t.Errorf("over-compaction: len %d head %d duration %v", all.Len(), all.Head, all.Duration())
	}
	twice := tr.Compact(4).Compact(3)
	if twice.Head != 7 || twice.Len() != 3 || twice.Prices[0] != 7 {
		t.Errorf("stacked compaction: head %d len %d first %v", twice.Head, twice.Len(), twice.Prices)
	}
}

// TestCompactedWindowMatchesUncompacted: a window over any absolute
// range inside the retained samples is byte-identical to the same window
// of the uncompacted trace — the property replay and the optimizer rely
// on after ring-buffer trimming.
func TestCompactedWindowMatchesUncompacted(t *testing.T) {
	full := seqTrace(240)
	c := full.Compact(60)
	for _, win := range []struct{ start, dur float64 }{
		{5, 15}, {10, 5}, {19, 1}, {5, 0.5}, {7.3, 2.2},
	} {
		a, b := full.Window(win.start, win.dur), c.Window(win.start, win.dur)
		if a.Head != 0 || b.Head != 0 {
			t.Fatalf("windows must detach from the absolute clock: heads %d/%d", a.Head, b.Head)
		}
		if a.Len() != b.Len() {
			t.Fatalf("window [%v,+%v): %d vs %d samples", win.start, win.dur, a.Len(), b.Len())
		}
		for i := range a.Prices {
			if a.Prices[i] != b.Prices[i] {
				t.Fatalf("window [%v,+%v) sample %d: %v vs %v", win.start, win.dur, i, a.Prices[i], b.Prices[i])
			}
		}
	}
}

// TestWindowBeforeHead: windowing a range at or before the compaction
// head must clamp, never panic. Regression: a window lying entirely
// before the retained head left hi negative, and lo (clamped to hi)
// drove Prices[lo:hi] out of range ("slice bounds out of range [:-6]") —
// reachable via Monte Carlo baselines windowing [start-history, start)
// for starts before the head when retention is shorter than the market.
func TestWindowBeforeHead(t *testing.T) {
	c := seqTrace(240).Compact(120) // retained range starts at hour 10
	if got := c.StartHour(); got != 10 {
		t.Fatalf("StartHour() = %v, want 10", got)
	}
	for _, win := range []struct{ start, dur float64 }{
		{0, 5}, {0, 9.9}, {2, 3}, {9, 0.5},
	} {
		w := c.Window(win.start, win.dur)
		if w.Len() != 0 {
			t.Errorf("window [%v,+%v) before the head: %d samples, want empty", win.start, win.dur, w.Len())
		}
	}
	// A window straddling the head clamps its start to the head.
	w := c.Window(5, 10)
	if w.Len() != 60 || w.Prices[0] != 120 {
		t.Errorf("straddling window: len %d first %v, want 60 samples starting at 120", w.Len(), w.Prices[0])
	}
}

func TestCloneCarriesHead(t *testing.T) {
	c := seqTrace(120).Compact(20)
	cl := c.Clone()
	if cl.Head != c.Head || cl.Len() != c.Len() || cl.Duration() != c.Duration() {
		t.Fatalf("clone dropped compaction state: head %d len %d", cl.Head, cl.Len())
	}
}

// TestWindowIsCapped: a window is a read-only view, so an append onto it
// must copy rather than write the parent's next sample.
func TestWindowIsCapped(t *testing.T) {
	tr := seqTrace(240)
	w := tr.Window(5, 5)
	if cap(w.Prices) != len(w.Prices) {
		t.Fatalf("window cap %d, len %d", cap(w.Prices), len(w.Prices))
	}
	next := tr.Prices[tr.IndexAt(10)]
	_ = append(w.Prices, -1)
	if got := tr.Prices[tr.IndexAt(10)]; got != next {
		t.Fatalf("append onto a window wrote the parent: %v, want %v", got, next)
	}
}
