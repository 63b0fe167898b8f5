package opt

import "errors"

// Sentinel errors of the v1 optimizer API. Callers branch on them with
// errors.Is; the wrapped messages carry the offending values.
var (
	// ErrInvalidConfig reports a structurally unsound Config: a nil
	// market, a non-positive deadline, κ exceeding the group cap, and so
	// on. It is a caller bug, not an environmental condition.
	ErrInvalidConfig = errors.New("opt: invalid config")

	// ErrDeadlineInfeasible reports that no on-demand fleet — the most
	// reliable resource money can buy — finishes the application within
	// the deadline. The result returned alongside it carries the
	// fastest-fleet fallback plan.
	ErrDeadlineInfeasible = errors.New("opt: deadline infeasible for every on-demand fleet")

	// ErrNoCandidates reports that the candidate circle-group list is
	// unusable: a candidate names an instance type outside the market's
	// catalog or a market with no recorded price history (typically a
	// stale Candidates list).
	ErrNoCandidates = errors.New("opt: no usable candidate circle groups")
)
