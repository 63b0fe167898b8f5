// Package replay executes hybrid spot/on-demand plans against recorded
// (or synthesized) spot-price traces — the paper's simulation methodology
// (Section 5.1): "we use the method of replaying the trace from the spot
// market, and calculate the monetary cost given the spot price in the
// trace. We randomly choose a start point in the trace and compare our
// bid price with the spot price along the time."
//
// Unlike the analytic model, the replayer terminates losing circle groups
// the moment a winner completes and pays the actual (not expected) spot
// price sample by sample; the gap between the two is exactly the model
// error the paper quantifies in §5.4.1.
package replay

import (
	"fmt"
	"math"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/model"
)

// SpotBilling selects how spot instance-hours convert into dollars.
type SpotBilling int

const (
	// BillingContinuous integrates the spot price over exact running
	// time — the accounting the paper's cost model and simulation use.
	BillingContinuous SpotBilling = iota
	// BillingHourly reproduces EC2's 2014 rule: each instance-hour is
	// charged upfront at the spot price in effect when the hour starts,
	// and a partial hour is free when Amazon terminates the instance
	// (out-of-bid) but billed when the user terminates it (the winner
	// completed). This softens brief spikes for high-bid strategies —
	// one reason Spot-Inf looked better on real EC2 than under
	// continuous integration.
	BillingHourly
)

// Runner replays plans for one application against one market view.
// Callers holding a live *cloud.Market should pass a Capture so
// ingestion cannot shift prices mid-replay.
type Runner struct {
	Market  cloud.MarketView
	Profile app.Profile
	// Billing selects the spot accounting rule; the zero value is the
	// paper's continuous integration.
	Billing SpotBilling
	// NoticeHours models an advance interruption warning (EC2's modern
	// 2-minute notice is 1.0/30 hours): on an out-of-bid event a group
	// whose checkpoint overhead fits inside the notice saves an emergency
	// checkpoint before dying, paying its bid for the notice window under
	// continuous billing. Zero (the 2014 rule) keeps terminations
	// warningless and reproduces the old replays bit-for-bit.
	NoticeHours float64
}

// Outcome reports one window (or full run) of execution.
type Outcome struct {
	// Cost is the money spent in this window, in dollars.
	Cost float64
	// Hours is the wall-clock time consumed.
	Hours float64
	// Progress is the fraction of the application completed by the end of
	// the window, measured in checkpoint-durable terms when groups died
	// and live terms otherwise.
	Progress float64
	// Completed reports whether the application finished.
	Completed bool
	// AllGroupsDead reports that every spot group hit an out-of-bid event
	// before the window (and the application) ended.
	AllGroupsDead bool
}

// groupState tracks one circle group mid-replay.
type groupState struct {
	gp    model.GroupPlan
	alive bool
	// productive is the work completed, in the group's own hours scale.
	productive float64
	// saved is the checkpoint-durable productive progress.
	saved float64
	// sinceCk is productive time since the last checkpoint.
	sinceCk float64
	// ckLeft is the wall time remaining on an in-progress checkpoint.
	ckLeft float64
	// billedHours counts instance-hours already charged upfront (hourly
	// billing only) and lastHourCharge remembers the most recent upfront
	// charge so an out-of-bid termination can refund its partial hour.
	billedHours    int
	lastHourCharge float64
	// runWall is the wall time the group has been running.
	runWall float64
}

// accrue charges the group for dt hours of running time under the
// runner's billing policy and returns the dollars charged now.
func (r *Runner) accrue(st *groupState, price, dt float64) float64 {
	if r.Billing == BillingContinuous {
		st.runWall += dt
		return price * float64(st.gp.Group.M) * dt
	}
	// Hourly: each instance-hour is charged upfront, at the price in
	// effect when the hour starts.
	cost := 0.0
	st.runWall += dt
	for float64(st.billedHours) < st.runWall {
		st.lastHourCharge = price * float64(st.gp.Group.M)
		cost += st.lastHourCharge
		st.billedHours++
	}
	return cost
}

// outOfBidRefund reports the refund due when Amazon terminates the group
// mid-hour: under the 2014 rule the interrupted partial hour is free.
func (r *Runner) outOfBidRefund(st *groupState) float64 {
	if r.Billing != BillingHourly {
		return 0
	}
	if float64(st.billedHours) > st.runWall+1e-12 {
		return st.lastHourCharge
	}
	return 0
}

// ExecuteWindow replays plan from absolute market hour start for at most
// windowHours of wall-clock time, starting the application from
// startProgress (fraction already completed, checkpoint-durable).
//
// The window ends when the application completes, when the window budget
// runs out, or when every spot group has died (the caller — the adaptive
// loop or RunToCompletion — decides between re-planning and on-demand
// recovery). Live progress is checkpointed at the window boundary, which
// is how Algorithm 1 carries state between optimization windows.
func (r *Runner) ExecuteWindow(plan model.Plan, start, windowHours, startProgress float64) Outcome {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	if startProgress < 0 || startProgress >= 1 {
		panic(fmt.Sprintf("replay: start progress %v outside [0,1)", startProgress))
	}
	// A zero-length (or negative) window is a degenerate boundary the
	// adaptive loop can legitimately produce when the deadline leaves no
	// exploration room: nothing runs, nothing is charged — in particular
	// no boundary checkpoint, which the group path below would otherwise
	// bill for zero hours of work.
	if windowHours <= 0 {
		return Outcome{Progress: startProgress}
	}
	if len(plan.Groups) == 0 {
		return r.runOnDemand(plan.Recovery, windowHours, startProgress, true)
	}

	k := plan.Groups[0].Group.Key
	step := r.Market.Trace(k.Type, k.Zone).Step
	states := make([]*groupState, len(plan.Groups))
	for i, gp := range plan.Groups {
		states[i] = &groupState{gp: gp, alive: true}
	}

	out := Outcome{Progress: startProgress}
	for wall := 0.0; wall < windowHours; wall += step {
		dt := math.Min(step, windowHours-wall)
		anyAlive := false
		for _, st := range states {
			if !st.alive {
				continue
			}
			price := r.Market.Trace(st.gp.Group.Key.Type, st.gp.Group.Key.Zone).At(start + wall)
			if price > st.gp.Bid {
				st.alive = false // out-of-bid event: Amazon kills the group
				// With an advance notice wide enough for one checkpoint,
				// the group saves its progress on the way out instead of
				// rolling back to the last scheduled checkpoint. The
				// notice window bills at the bid (never above it) under
				// continuous accounting; under the 2014 hourly rule the
				// interrupted hour is refunded anyway.
				if r.NoticeHours > 0 && st.gp.Group.O <= r.NoticeHours && st.productive > st.saved {
					st.saved = st.productive
					st.sinceCk = 0
					if r.Billing == BillingContinuous {
						out.Cost += st.gp.Bid * float64(st.gp.Group.M) * r.NoticeHours
					}
				}
				out.Cost -= r.outOfBidRefund(st)
				continue
			}
			anyAlive = true
			out.Cost += r.accrue(st, price, dt)

			T := float64(st.gp.Group.T)
			remaining := (1 - startProgress) * T
			switch {
			case st.ckLeft > 0: // mid-checkpoint: no productive progress
				st.ckLeft -= dt
				if st.ckLeft <= 0 {
					st.ckLeft = 0
					st.saved = st.productive
					st.sinceCk = 0
				}
			default:
				st.productive += dt
				st.sinceCk += dt
				ckEnabled := st.gp.Interval < T
				if ckEnabled && st.sinceCk >= st.gp.Interval && st.productive < remaining {
					st.ckLeft = st.gp.Group.O
				}
			}
			// The completion test tolerates the float drift of summing
			// ~step-sized increments: a window sized exactly to the
			// remaining work must complete inside it, not fall one
			// ulp-short step past the boundary.
			if st.productive >= remaining-1e-9 {
				// Winner: the application is done; losers are terminated
				// right now, having been billed up to this instant.
				out.Hours = wall + dt
				out.Progress = 1
				out.Completed = true
				return out
			}
		}
		if !anyAlive {
			out.Hours = wall + dt
			out.AllGroupsDead = true
			out.Progress = r.bestProgress(states, startProgress, false)
			return out
		}
	}
	out.Hours = windowHours
	// Window boundary: live groups checkpoint their final state
	// (Algorithm 1 line "checkpointing the final state of the application
	// as the next start point"); pay one checkpoint on the best group.
	out.Progress = r.bestProgress(states, startProgress, true)
	for _, st := range states {
		if st.alive {
			price := r.Market.Trace(st.gp.Group.Key.Type, st.gp.Group.Key.Zone).At(start + windowHours)
			out.Cost += price * float64(st.gp.Group.M) * st.gp.Group.O
			break
		}
	}
	return out
}

// bestProgress reports the most advanced recoverable progress across
// groups: checkpoint-durable progress for dead groups, live (about to be
// checkpointed) progress for alive ones when liveCounts is set.
func (r *Runner) bestProgress(states []*groupState, startProgress float64, liveCounts bool) float64 {
	best := startProgress
	for _, st := range states {
		avail := st.saved
		if liveCounts && st.alive {
			avail = st.productive
		}
		// avail productive hours on this group advance the whole
		// application by avail/T of its span.
		frac := startProgress + avail/float64(st.gp.Group.T)
		if frac > best {
			best = frac
		}
	}
	if best > 1 {
		best = 1
	}
	return best
}

// runOnDemand executes the remaining work on the recovery fleet. When
// fromCheckpoint is set, the fleet first pays the recovery overhead.
func (r *Runner) runOnDemand(od model.OnDemand, windowHours, startProgress float64, fromCheckpoint bool) Outcome {
	need := (1 - startProgress) * od.T
	if fromCheckpoint && startProgress > 0 {
		need += app.RecoveryHours(r.Profile, od.Instance)
	}
	hours := math.Min(need, windowHours)
	out := Outcome{
		Cost:  od.Rate() * hours,
		Hours: hours,
	}
	if hours >= need {
		out.Progress = 1
		out.Completed = true
	} else {
		// Partial on-demand windows make progress linearly; recovery
		// overhead is counted against progress conservatively.
		out.Progress = startProgress + (1-startProgress)*(hours/need)
	}
	return out
}

// RunToCompletion replays plan from absolute hour start until the
// application finishes: spot groups first and, if they all die, on-demand
// recovery from the best checkpoint (the paper's hybrid execution,
// Section 3.1.1). The returned outcome always has Completed set.
func (r *Runner) RunToCompletion(plan model.Plan, start float64) Outcome {
	total := Outcome{}
	progress := 0.0
	if len(plan.Groups) > 0 {
		// The spot phase runs at most until the trace would wrap far past
		// its end; a generous bound keeps pathological plans from looping
		// forever.
		k := plan.Groups[0].Group.Key
		bound := r.Market.Trace(k.Type, k.Zone).Duration() * 4
		o := r.ExecuteWindow(plan, start, bound, 0)
		total.Cost += o.Cost
		total.Hours += o.Hours
		progress = o.Progress
		if o.Completed {
			total.Completed = true
			total.Progress = 1
			return total
		}
		total.AllGroupsDead = o.AllGroupsDead
	}
	rec := r.runOnDemand(plan.Recovery, math.Inf(1), progress, len(plan.Groups) > 0)
	total.Cost += rec.Cost
	total.Hours += rec.Hours
	total.Progress = rec.Progress
	total.Completed = rec.Completed
	return total
}
