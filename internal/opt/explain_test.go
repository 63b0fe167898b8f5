package opt

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sompi/internal/app"
	"sompi/internal/obs"
)

func TestExplainTrail(t *testing.T) {
	m := testMarket(7)
	p := app.BT()
	cfg := smallConfig(m, p, 60)

	plain, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Explain != nil {
		t.Fatal("Explain populated without Config.Explain")
	}

	cfg.Explain = true
	res, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Explain
	if ex == nil {
		t.Fatal("Explain missing with Config.Explain set")
	}

	// The trail must not perturb the plan. (Groups are compared by
	// key/bid/interval, not DeepEqual: the *Group pointers carry lazily
	// filled per-bid caches whose state depends on evaluation order.)
	if res.Est != plain.Est || len(res.Plan.Groups) != len(plain.Plan.Groups) {
		t.Fatalf("explain changed the plan:\nplain %+v\nexplain %+v", plain.Est, res.Est)
	}
	for i := range res.Plan.Groups {
		a, b := res.Plan.Groups[i], plain.Plan.Groups[i]
		if a.Group.Key != b.Group.Key || a.Bid != b.Bid || a.Interval != b.Interval {
			t.Fatalf("group %d diverged: %+v vs %+v", i, a, b)
		}
	}

	if ex.Kappa != 2 || ex.GridLevels != 4 || ex.Workers != 1 {
		t.Fatalf("effective knobs wrong: %+v", ex)
	}
	if ex.BaselineCost <= 0 {
		t.Fatalf("baseline cost %v", ex.BaselineCost)
	}
	if ex.Evals != res.Evals || ex.Pruned != res.Pruned {
		t.Fatalf("counters diverge: trail %d/%d result %d/%d", ex.Evals, ex.Pruned, res.Evals, res.Pruned)
	}
	if ex.TotalNs <= 0 {
		t.Fatalf("total duration %d", ex.TotalNs)
	}

	// Every (type, zone) market gets a decision; the generous deadline
	// keeps the 4 cheapest by standalone cost (MaxGroups=4), so the rest
	// must carry a dominated/rejected reason.
	if want := len(m.Keys()); len(ex.Candidates) != want {
		t.Fatalf("%d candidate decisions, want %d", len(ex.Candidates), want)
	}
	kept, dropped := 0, 0
	for _, d := range ex.Candidates {
		if d.Reason == "" || d.Market == "" {
			t.Fatalf("decision missing market/reason: %+v", d)
		}
		if d.Kept {
			kept++
		} else {
			dropped++
		}
		if d.Selected && !d.Kept {
			t.Fatalf("selected candidate was not kept: %+v", d)
		}
	}
	if kept != cfg.MaxGroups {
		t.Fatalf("%d kept, want MaxGroups=%d", kept, cfg.MaxGroups)
	}
	if dropped == 0 {
		t.Fatal("expected dominated candidates with 12 markets and MaxGroups=4")
	}

	// Selected mirrors the winning plan's groups.
	if len(ex.Selected) != len(res.Plan.Groups) {
		t.Fatalf("selected %v vs %d plan groups", ex.Selected, len(res.Plan.Groups))
	}
	for i, gp := range res.Plan.Groups {
		if ex.Selected[i] != gp.Group.Key.String() {
			t.Fatalf("selected[%d] = %q, want %q", i, ex.Selected[i], gp.Group.Key.String())
		}
	}
	selectedMarked := 0
	for _, d := range ex.Candidates {
		if d.Selected {
			selectedMarked++
		}
	}
	if selectedMarked != len(res.Plan.Groups) {
		t.Fatalf("%d candidates marked selected, want %d", selectedMarked, len(res.Plan.Groups))
	}

	// Stage order: the pipeline always runs these four in sequence.
	var names []string
	for _, st := range ex.Stages {
		names = append(names, st.Name)
		if st.DurationNs < 0 {
			t.Fatalf("stage %s negative duration", st.Name)
		}
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"select_on_demand", "enumerate_candidates", "bid_grid", "rank_candidates", "subset_search"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("stages %v missing %q", names, want)
		}
	}
}

func TestExplainDeadlineRejections(t *testing.T) {
	m := testMarket(3)
	p := app.BT()
	// A deadline between the fastest and slowest standalone times forces
	// at least one deadline rejection.
	fast := FastestOnDemand(m.Catalog(), p)
	cfg := smallConfig(m, p, fast.T*2)
	cfg.Explain = true
	res, err := OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawDeadline := false
	for _, d := range res.Explain.Candidates {
		if !d.Kept && strings.Contains(d.Reason, "deadline") {
			sawDeadline = true
			if d.StandaloneHours <= cfg.Deadline {
				t.Fatalf("deadline rejection with feasible standalone time: %+v", d)
			}
		}
	}
	if !sawDeadline {
		t.Skip("no deadline-infeasible market at this seed; trail still valid")
	}
}

// TestOptimizeSpans holds DESIGN §16 O1 by a count rather than a clock:
// with a collector installed a plan records exactly 6 + 1 spans —
// opt.optimize, the five stage spans and one opt.search.worker for the
// one search pass — however many leaves it evaluates and whatever
// Workers says, at GOMAXPROCS 2. So the disabled path, where every one
// of those sites is an allocation-free context lookup
// (TestDisabledPathZeroAlloc; newStageClock is nil), does O(1) of them
// per plan. The two configs' evaluation counts differ by over 100×; a
// span site inside the per-unit or per-leaf loops breaks the count.
func TestOptimizeSpans(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	bt := app.BT()
	configs := []struct {
		name string
		cfg  Config
	}{
		{"small", smallConfig(testMarket(5), bt, 60)},
		{"default", Config{Profile: bt, Market: testMarket(42), Deadline: FastestOnDemand(nil, bt).T * 1.5}},
	}
	var evals [2]int
	for i, tc := range configs {
		for _, workers := range []int{0, 1, 2} {
			cfg := tc.cfg
			cfg.Workers = workers
			c := obs.NewCollector(256)
			ctx, root := obs.StartRoot(context.Background(), c, "http.plan", "req-test")
			res, err := OptimizeContext(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			root.End()
			if workers == 1 {
				evals[i] = res.Evals
			}

			spans := c.Spans("req-test", 0)
			byName := map[string]int{}
			for _, sd := range spans {
				byName[sd.Name]++
				if sd.TraceID != "req-test" {
					t.Fatalf("span %s trace %q", sd.Name, sd.TraceID)
				}
			}
			want := map[string]int{
				"http.plan":                1,
				"opt.optimize":             1,
				"opt.select_on_demand":     1,
				"opt.enumerate_candidates": 1,
				"opt.bid_grid":             1,
				"opt.rank_candidates":      1,
				"opt.subset_search":        1,
				"opt.search.worker":        1,
			}
			if fmt.Sprint(byName) != fmt.Sprint(want) {
				t.Errorf("%s config, %d workers, %d evals: %d spans %v, want 1 + 6 + 1 %v",
					tc.name, workers, res.Evals, len(spans), byName, want)
			}
		}
	}
	t.Logf("evals: %d and %d", evals[0], evals[1])
	if evals[1] < 100*evals[0] {
		t.Fatalf("evals %d and %d differ by less than 100x; the count would not show a per-leaf span", evals[0], evals[1])
	}
}
