package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"sompi/internal/app"
)

// tiny keeps experiment tests fast: short market, few runs, one app per
// class where the experiment allows restricting.
func tiny() Params {
	return Params{
		Seed:        7,
		MarketHours: 24 * 12,
		Runs:        3,
		Apps:        []app.Profile{app.BT(), app.FT(), app.BTIO()},
	}
}

func cell(t *testing.T, tab interface{ String() string }, rows [][]string, r, c int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(rows[r][c], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric:\n%s", r, c, rows[r][c], tab.String())
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "fig4", "fig5", "tab2", "fig6", "fig7", "fig8",
		"slack", "kappa", "tm", "acc-frf", "acc-model", "tournament"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
	}
	if _, err := ByID("fig5"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID accepted an unknown id")
	}
}

func TestFig1Shape(t *testing.T) {
	tab := Fig1(tiny())
	if len(tab.Rows) != 72 {
		t.Fatalf("%d rows, want 72", len(tab.Rows))
	}
	// Spatial variation: zone A must exceed zone B somewhere for
	// m1.medium (column 1 vs 2).
	exceeded := false
	for r := range tab.Rows {
		if cell(t, tab, tab.Rows, r, 1) > 2*cell(t, tab, tab.Rows, r, 2) {
			exceeded = true
			break
		}
	}
	if !exceeded {
		t.Error("zone A never spiked past 2x zone B in 72h")
	}
}

func TestFig2DailyDistributionsClose(t *testing.T) {
	tab := Fig2(tiny())
	if len(tab.Rows) != 12 {
		t.Fatalf("%d rows, want 12 bins", len(tab.Rows))
	}
	// Each day's densities sum to ~1.
	for c := 1; c <= 4; c++ {
		sum := 0.0
		for r := range tab.Rows {
			sum += cell(t, tab, tab.Rows, r, c)
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("day %d densities sum to %v", c, sum)
		}
	}
	// The stability note must report distances well under disjoint (2.0).
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "L1") {
		t.Fatal("missing L1 distance note")
	}
}

func TestFig4Monotonicity(t *testing.T) {
	tab := Fig4(tiny())
	for r := 1; r < len(tab.Rows); r++ {
		for _, col := range []int{1, 3} { // failure rates fall with bid
			if cell(t, tab, tab.Rows, r, col) > cell(t, tab, tab.Rows, r-1, col)+1e-9 {
				t.Errorf("failure rate rose with bid at row %d col %d:\n%s", r, col, tab)
			}
		}
		for _, col := range []int{2, 4} { // expected prices rise with bid
			if cell(t, tab, tab.Rows, r, col) < cell(t, tab, tab.Rows, r-1, col)-1e-9 {
				t.Errorf("S(P) fell with bid at row %d col %d:\n%s", r, col, tab)
			}
		}
	}
}

func TestFig5Shape(t *testing.T) {
	p := tiny()
	p.Apps = []app.Profile{app.BT()}
	tab := Fig5(p)
	if len(tab.Rows) != 2 { // loose + tight
		t.Fatalf("%d rows, want 2", len(tab.Rows))
	}
	for r := range tab.Rows {
		onDemand := cell(t, tab, tab.Rows, r, 3)
		sompi := cell(t, tab, tab.Rows, r, 6)
		// Loose deadlines must show a clear win; tight deadlines are
		// razor-thin in this market (see EXPERIMENTS.md), so only require
		// rough parity there.
		limit := onDemand
		if tab.Rows[r][2] == "tight" {
			limit = onDemand * 1.15
		}
		if sompi >= limit {
			t.Errorf("row %d (%s): SOMPI %.3f not below %.3f\n%s",
				r, tab.Rows[r][2], sompi, limit, tab)
		}
		if sompi <= 0 || sompi > 1.5 {
			t.Errorf("row %d: SOMPI normalized cost %v implausible", r, sompi)
		}
	}
}

func TestTable2TimesNearDeadline(t *testing.T) {
	p := tiny()
	p.Apps = []app.Profile{app.BT()}
	tab := Table2(p)
	for r := range tab.Rows {
		dl := cell(t, tab, tab.Rows, r, 4)
		for _, col := range []int{2, 3} {
			v := cell(t, tab, tab.Rows, r, col)
			if v > dl*1.15 {
				t.Errorf("row %d col %d: normalized time %.3f far above deadline %.2f\n%s",
					r, col, v, dl, tab)
			}
		}
	}
}

func TestFig6SOMPIBeatsHeuristics(t *testing.T) {
	p := tiny()
	p.Apps = []app.Profile{app.BT()}
	tab := Fig6(p)
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for r := range tab.Rows {
		sompi := cell(t, tab, tab.Rows, r, 5)
		for _, col := range []int{2, 3, 4} {
			if sompi > cell(t, tab, tab.Rows, r, col)*1.1 {
				t.Errorf("row %d: SOMPI %.3f above competitor col %d\n%s", r, sompi, col, tab)
			}
		}
	}
}

func TestFig7CostFallsWithDeadline(t *testing.T) {
	p := tiny()
	p.Runs = 3
	tab := Fig7(p)
	// Within each app block (7 rows), the last deadline's cost must be
	// below the first's, and recovery types must step down the catalog.
	const block = 7
	if len(tab.Rows)%block != 0 {
		t.Fatalf("unexpected row count %d", len(tab.Rows))
	}
	for b := 0; b+block <= len(tab.Rows); b += block {
		first := cell(t, tab, tab.Rows, b, 2)
		last := cell(t, tab, tab.Rows, b+block-1, 2)
		if last >= first {
			t.Errorf("app %s: cost did not fall from tight (%v) to loose (%v)\n%s",
				tab.Rows[b][0], first, last, tab)
		}
	}
}

func TestFig8SOMPIBestOverall(t *testing.T) {
	p := tiny()
	tab := Fig8(p)
	// Average each strategy column over all rows; SOMPI (col 6) must have
	// the lowest mean.
	sums := make([]float64, 7)
	for r := range tab.Rows {
		for c := 2; c <= 6; c++ {
			sums[c] += cell(t, tab, tab.Rows, r, c)
		}
	}
	for c := 2; c < 6; c++ {
		if sums[6] > sums[c]*1.05 {
			t.Errorf("SOMPI mean %.3f above ablation col %d mean %.3f\n%s",
				sums[6], c, sums[c], tab)
		}
	}
}

func TestKappaEvalsGrow(t *testing.T) {
	tab := Kappa(tiny())
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(tab.Rows))
	}
	for r := 1; r < len(tab.Rows); r++ {
		if cell(t, tab, tab.Rows, r, 2) <= cell(t, tab, tab.Rows, r-1, 2) {
			t.Errorf("enumerated leaves did not grow with kappa:\n%s", tab)
		}
		if cell(t, tab, tab.Rows, r, 1) > cell(t, tab, tab.Rows, r-1, 1)+1e-9 {
			t.Errorf("expected cost rose with kappa:\n%s", tab)
		}
	}
}

// TestKappaStudyPinned pins the κ study at tiny() to the rows it printed
// when the pin was added: κ, normalized expected cost, the leaves
// enumerated (Evals + Pruned) and the evaluations (Evals); wall-ms is a
// clock and stays unpinned. It records the ⚠ of EXPERIMENTS.md: the cost
// is flat from κ = 1, not falling to κ = 4 as in the paper, while the
// space the traversal enumerates grows ~5,200× and the leaves the pruned
// search evaluates only ~2×. The study runs no replay or tournament
// pool, so Workers plays no part; the search runs on one worker, Evals
// and Pruned are a pure function of the Config, and a search change that
// moves which leaves are evaluated moves a row.
func TestKappaStudyPinned(t *testing.T) {
	p := tiny()
	tab := Kappa(p)
	want := [][]string{
		{"1", "0.363", "103", "96"},
		{"2", "0.363", "1111", "103"},
		{"3", "0.363", "13207", "124"},
		{"4", "0.363", "103927", "159"},
		{"5", "0.363", "539383", "194"},
	}
	got := make([][]string, len(tab.Rows))
	for i, row := range tab.Rows {
		got[i] = row[:min(4, len(row))]
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("κ study rows %v, pinned %v\n%s", got, want, tab)
	}
}

// TestFig5CommunicationPinned pins fig5's FT and IS rows at tiny() to
// what they printed when the pin was added: normalized cost of
// On-demand, Marathe, Marathe-Opt and SOMPI, the communication-intensive
// ⚠ rows of EXPERIMENTS.md. The paper has SOMPI still saving about 35 %
// at tight deadlines; here SOMPI falls back to on-demand (1) there, above
// Marathe. Whether that is a loss is ROADMAP item 1's open question:
// Marathe's deadline misses are not counted in its cost.
func TestFig5CommunicationPinned(t *testing.T) {
	p := tiny()
	p.Apps = []app.Profile{app.FT(), app.IS()}
	tab := Fig5(p)
	c := string(app.Communication)
	want := [][]string{
		{"FT", c, "loose", "1", "0.758", "0.758", "0.35"},
		{"FT", c, "tight", "1", "0.574", "0.574", "1"},
		{"IS", c, "loose", "1", "0.788", "0.788", "0.293"},
		{"IS", c, "tight", "1", "0.908", "0.908", "1"},
	}
	if fmt.Sprint(tab.Rows) != fmt.Sprint(want) {
		t.Errorf("fig5 FT/IS rows %v, pinned %v\n%s", tab.Rows, want, tab)
	}
}

// TestSlackStudyPinned pins the slack study at tiny() with two runs to
// the rows it printed when the pin was added: normalized cost, time and
// miss rate per slack. At this size the curve is flat — all five slacks
// give the same row — so the test records that and claims no knee;
// showing the paper's fall to ~20 % slack needs a larger scenario.
func TestSlackStudyPinned(t *testing.T) {
	p := tiny()
	p.Runs = 2
	tab := Slack(p)
	want := [][]string{
		{"0", "0.216", "0.804", "0"},
		{"0.1", "0.216", "0.804", "0"},
		{"0.2", "0.216", "0.804", "0"},
		{"0.3", "0.216", "0.804", "0"},
		{"0.4", "0.216", "0.804", "0"},
	}
	if fmt.Sprint(tab.Rows) != fmt.Sprint(want) {
		t.Errorf("slack study rows %v, pinned %v\n%s", tab.Rows, want, tab)
	}
}

// TestTmStudyPinned pins the T_m study at tiny() to the rows it printed
// when the pin was added: normalized cost per optimization window and a
// zero miss rate. It records what the repo measures, not the paper's
// U-shape, which these rows do not show; and each row runs the κ = 4
// adaptive search, so a search change that moves a plan moves a row.
func TestTmStudyPinned(t *testing.T) {
	tab := Tm(tiny())
	want := [][]string{
		{"5", "0.188", "0"},
		{"10", "0.213", "0"},
		{"15", "0.215", "0"},
		{"20", "0.215", "0"},
		{"30", "0.215", "0"},
	}
	if fmt.Sprint(tab.Rows) != fmt.Sprint(want) {
		t.Errorf("T_m study rows %v, pinned %v\n%s", tab.Rows, want, tab)
	}
}

func TestAccFRFReportsAccuracy(t *testing.T) {
	tab := AccFRF(tiny())
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for r := range tab.Rows {
		if mean := cell(t, tab, tab.Rows, r, 2); mean > 0.25 {
			t.Errorf("row %d: mean day-over-day survival drift %.0fpp — estimator unstable\n%s",
				r, mean*100, tab)
		}
	}
}

func TestAccModelWithinTolerance(t *testing.T) {
	p := tiny()
	p.Runs = 5
	tab := AccModel(p)
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for r := range tab.Rows {
		if rel := cell(t, tab, tab.Rows, r, 3); rel > 0.5 {
			t.Errorf("row %d: model off by %.0f%% from replay\n%s", r, rel*100, tab)
		}
	}
}
