package opt

import (
	"context"
	"time"

	"sompi/internal/obs"
)

// Explain is the optimizer's decision trail: which candidate circle
// groups were enumerated and why each was kept or rejected, how long
// every pipeline stage took, and what the search finally selected. It is
// built only when Config.Explain is set — the disabled path records
// nothing and allocates nothing — and rides on Result.Explain, which is
// what /v1/plan?explain=1 and `sompi explain` render.
type Explain struct {
	// Kappa and GridLevels are the effective (defaulted) search knobs
	// the trail was produced under. Workers is always 1: the search runs
	// on one goroutine, and the field stays because the v1 API never
	// removes a response field.
	Kappa      int `json:"kappa"`
	GridLevels int `json:"grid_levels"`
	Workers    int `json:"workers"`
	// BaselineCost is the pure on-demand incumbent every spot plan had to
	// beat.
	BaselineCost float64 `json:"baseline_cost"`
	// Stages are the pipeline stages in execution order with wall-clock
	// durations.
	Stages []Stage `json:"stages"`
	// Candidates holds one decision per enumerated (type, zone) market.
	Candidates []CandidateDecision `json:"candidates"`
	// Selected names the markets of the winning plan's circle groups
	// (empty means pure on-demand won).
	Selected []string `json:"selected"`
	// WorkUnits is how many units the subset space was split into for
	// the dispatch order: one per first group.
	WorkUnits int `json:"work_units,omitempty"`
	// Evals and Pruned mirror Result's search-effort counters: the
	// evaluations performed, one per search leaf visited, and the leaves
	// a bound settled unvisited. SavedEvals mirrors Result.SavedEvals
	// (reuse-memo hits).
	Evals      int `json:"evals"`
	Pruned     int `json:"pruned"`
	SavedEvals int `json:"saved_evals,omitempty"`
	// TotalNs is the whole optimization's wall clock.
	TotalNs int64 `json:"total_ns"`
}

// Stage is one timed pipeline stage.
type Stage struct {
	Name       string `json:"name"`
	DurationNs int64  `json:"duration_ns"`
}

// CandidateDecision records why one candidate market was kept in — or
// rejected from — the κ-subset traversal.
type CandidateDecision struct {
	// Market is the candidate's "type/zone" key.
	Market string `json:"market"`
	// Kept reports whether the candidate entered the subset traversal;
	// Selected whether it made the winning plan.
	Kept     bool `json:"kept"`
	Selected bool `json:"selected,omitempty"`
	// Reason is the human-readable rejection (or retention) rationale.
	Reason string `json:"reason"`
	// StandaloneHours is the group's failure-free solo completion time.
	StandaloneHours float64 `json:"standalone_hours,omitempty"`
	// StandaloneCost is the group's best solo expected cost across the
	// bid grid (computed only when the MaxGroups ranking ran).
	StandaloneCost float64 `json:"standalone_cost,omitempty"`
}

// stageClock times the optimizer's pipeline stages, mirroring each one
// into an Explain entry and an obs span. A nil *stageClock (no explain
// payload requested and no collector installed) costs nothing: every
// method returns immediately and no clock is read.
type stageClock struct {
	ctx      context.Context
	ex       *Explain
	cur      *obs.Span
	curName  string
	curStart time.Time
}

// newStageClock returns nil when both consumers are absent, which is the
// disabled fast path; TestOptimizeSpans counts the stage spans it opens.
func newStageClock(ctx context.Context, ex *Explain) *stageClock {
	if ex == nil && obs.CollectorFrom(ctx) == nil {
		return nil
	}
	return &stageClock{ctx: ctx, ex: ex}
}

// begin closes the current stage (if any) and opens the next.
func (sc *stageClock) begin(name string) {
	if sc == nil {
		return
	}
	sc.close()
	sc.curName = name
	sc.curStart = time.Now()
	_, sc.cur = obs.StartSpan(sc.ctx, "opt."+name)
}

// close ends the current stage, recording its duration.
func (sc *stageClock) close() {
	if sc == nil || sc.curName == "" {
		return
	}
	if sc.ex != nil {
		sc.ex.Stages = append(sc.ex.Stages, Stage{sc.curName, time.Since(sc.curStart).Nanoseconds()})
	}
	sc.cur.End()
	sc.cur = nil
	sc.curName = ""
}
