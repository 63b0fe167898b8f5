package cloud

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"sompi/internal/trace"
)

// viewMarket is a one-shard market over n samples. It also returns the
// caller's slice, which carries spare capacity the shard must never
// write.
func viewMarket(n int) (*Market, MarketKey, []float64) {
	key := MarketKey{M1Small.Name, ZoneA}
	prices := make([]float64, n, n+64)
	for i := range prices {
		prices[i] = 0.01 * float64(i%97)
	}
	m := NewMarket(Catalog{M1Small}, []string{ZoneA},
		map[MarketKey]*trace.Trace{key: trace.New(trace.DefaultStep, prices)})
	return m, key, prices
}

// heldView is a view as a reader captured it, with a deep copy of its
// samples taken at capture.
type heldView struct {
	how    string
	prices []float64
	bits   []uint64
}

func bitsOf(prices []float64) []uint64 {
	bits := make([]uint64, len(prices))
	for i, p := range prices {
		bits[i] = math.Float64bits(p)
	}
	return bits
}

// holdViews captures the shard through every read path that hands out
// its samples: Capture, TraceFor, Window and ExportShards.
func holdViews(m *Market, key MarketKey, held []heldView) []heldView {
	snap, _ := m.Capture().TraceFor(key)
	live, _ := m.TraceFor(key)
	frontier := m.MinDuration()
	win, _ := m.Window(frontier-1, 1).TraceFor(key)
	for _, v := range []heldView{
		{how: "Capture", prices: snap.Prices},
		{how: "TraceFor", prices: live.Prices},
		{how: "Window", prices: win.Prices},
		{how: "ExportShards", prices: m.ExportShards()[0].Prices},
	} {
		v.bits = bitsOf(v.prices)
		held = append(held, v)
	}
	return held
}

// checkViews asserts D8 on every held view: samples bit-identical to the
// copy taken at capture, capped, and a reader's append onto it copies —
// the sentinel it appends never reaches the shard's backing array.
func checkViews(t *testing.T, m *Market, key MarketKey, held []heldView) {
	t.Helper()
	const sentinel = -1.0 // never a valid price
	for i, v := range held {
		if cap(v.prices) != len(v.prices) {
			t.Fatalf("view %d (%s): cap %d, len %d", i, v.how, cap(v.prices), len(v.prices))
		}
		if len(v.prices) != len(v.bits) {
			t.Fatalf("view %d (%s): %d samples, captured %d", i, v.how, len(v.prices), len(v.bits))
		}
		for j, p := range v.prices {
			if math.Float64bits(p) != v.bits[j] {
				t.Fatalf("view %d (%s) sample %d changed: %v", i, v.how, j, p)
			}
		}
		_ = append(v.prices, sentinel)
	}
	s := m.shards[key]
	s.mu.RLock()
	defer s.mu.RUnlock()
	for j, p := range s.buf[:cap(s.buf)] {
		if p == sentinel {
			t.Fatalf("a reader's append wrote the shard's backing array at %d", j)
		}
	}
}

// TestCapturedViewsSurviveAppends pins D8: a view once handed out never
// changes — across appends into spare capacity, ≥ 3 reallocations, with
// retention on and off, and across RestoreShards, MergeShards and
// SetRetention — and the caller's slice a market was built over is
// never written.
func TestCapturedViewsSurviveAppends(t *testing.T) {
	for _, retain := range []float64{0, 2} {
		t.Run(fmt.Sprintf("retain=%vh", retain), func(t *testing.T) {
			m, key, callers := viewMarket(48)
			callerBits := bitsOf(callers[:cap(callers)])
			m.SetRetention(retain)
			s := m.shards[key]
			held := holdViews(m, key, nil)
			tick := 0
			appendTicks := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					samples := make([]float64, 1+tick%5)
					for j := range samples {
						samples[j] = 0.5 + 0.001*float64(tick)
					}
					tick++
					if _, err := m.Append(key, samples); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Hold views just before and just after every reallocation,
			// and every 16 ticks between them.
			for reallocs := 0; reallocs < 4; {
				if tick > 10000 {
					t.Fatalf("%d reallocations in %d ticks", reallocs, tick)
				}
				before := holdViews(m, key, nil)
				prevCap := cap(s.buf)
				appendTicks(1)
				if cap(s.buf) > prevCap {
					reallocs++
					held = holdViews(m, key, append(held, before...))
				} else if tick%16 == 0 {
					held = holdViews(m, key, held)
				}
				checkViews(t, m, key, held)
			}

			if err := m.RestoreShards(m.ExportShards()); err != nil {
				t.Fatal(err)
			}
			held = holdViews(m, key, held)
			appendTicks(3)
			held = holdViews(m, key, held)
			checkViews(t, m, key, held)

			st := m.ExportShards()[0]
			st.Prices = append(append([]float64(nil), st.Prices...), 0.7, 0.8)
			st.Version += 2
			if n, err := m.MergeShards([]ShardState{st}); err != nil || n != 1 {
				t.Fatalf("MergeShards: %d shards moved, err %v", n, err)
			}
			held = holdViews(m, key, held)
			appendTicks(3)
			held = holdViews(m, key, held)
			checkViews(t, m, key, held)

			m.SetRetention(1)
			held = holdViews(m, key, held)
			m.SetRetention(0)
			appendTicks(40)
			held = holdViews(m, key, held)
			checkViews(t, m, key, held)

			for i, b := range bitsOf(callers[:cap(callers)]) {
				if b != callerBits[i] {
					t.Fatalf("the market wrote the caller's slice at %d", i)
				}
			}
		})
	}
}

// TestCapturedViewsSurviveConcurrentAppends is D8 under -race: readers
// scan views they captured while one goroutine appends through
// reallocations and compaction. A write into any sample a reader can
// reach is a data race, and a changed sample fails outright.
func TestCapturedViewsSurviveConcurrentAppends(t *testing.T) {
	m, key, _ := viewMarket(48)
	m.SetRetention(2)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap, _ := m.Capture().TraceFor(key)
				win, _ := m.Window(m.MinDuration()-1, 1).TraceFor(key)
				for _, prices := range [][]float64{snap.Prices, win.Prices} {
					bits := bitsOf(prices)
					runtime.Gosched()
					for i, p := range prices {
						if math.Float64bits(p) != bits[i] || cap(prices) != len(prices) {
							t.Errorf("captured sample %d changed under a concurrent append", i)
							return
						}
					}
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		if _, err := m.Append(key, []float64{0.5 + 0.01*float64(i%7)}); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestAppendCostIndependentOfHistory: a one-sample tick allocates a
// small constant whatever the history length — amortized, reallocations
// included. The copy-on-append store paid 8 B × history per tick: 32 KiB
// at 4k samples, 512 KiB at 64k.
func TestAppendCostIndependentOfHistory(t *testing.T) {
	const ticks = 16384
	perTick := func(history int) float64 {
		m, key, _ := viewMarket(history)
		sample := []float64{0.5}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < ticks; i++ {
			if _, err := m.Append(key, sample); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / ticks
	}
	small, large := perTick(4<<10), perTick(64<<10)
	t.Logf("bytes allocated per one-sample tick: %.0f at 4k samples, %.0f at 64k", small, large)
	const bound = 256
	if small > bound || large > bound {
		t.Fatalf("per-tick allocation %.0f B (4k) / %.0f B (64k), want both ≤ %d B", small, large, bound)
	}
}
