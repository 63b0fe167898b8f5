package model

import (
	"testing"

	"sompi/internal/app"
	"sompi/internal/cloud"
	"sompi/internal/failure"
)

// FuzzEvaluateMatchesBrute holds Evaluate to the brute-force enumerator
// on random plans of 1–3 planted groups that Plan.Validate admits. raw
// decodes, a byte at a time (zeros once it runs out), into the group
// count, then per group T in [1, 12], M in [1, 8], O, R ≥ O, the
// expected price at bid 1 and a failure distribution over 0..T
// normalized to sum 1 (all its mass on T, a group that never fails, when
// every byte is zero), and last the instance type of BT's recovery
// fleet.
// f1–f3 are the groups' checkpoint intervals, as the fuzzer draws them.
func FuzzEvaluateMatchesBrute(f *testing.F) {
	f.Add([]byte{0, 9, 2, 16, 8, 40, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3.0, 0.0, 0.0)
	f.Add([]byte{1, 6, 4, 1, 8, 30, 5, 0, 3, 0, 1, 0, 0, 9, 2, 16, 3, 24, 40, 1, 2, 3, 4, 1}, 2.5, 100.0, 0.0)
	f.Add([]byte{2, 5, 8, 2, 16, 20, 3, 1, 4, 1, 5, 9, 2, 3, 4, 0, 32, 48, 2, 7, 1, 8, 2,
		7, 16, 5, 8, 10, 1, 1, 2, 3, 5, 8, 13, 21, 34, 3}, 2.0, 1.5, 3.0)
	f.Add([]byte{2, 11, 5, 5, 5, 5, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 3, 3, 3, 3, 1, 1, 1, 0, 0, 0, 0, 0, 7, 7}, 2e-15, 1e300, 0.5)
	f.Fuzz(func(t *testing.T, raw []byte, f1, f2, f3 float64) {
		next := func() int {
			if len(raw) == 0 {
				return 0
			}
			v := raw[0]
			raw = raw[1:]
			return int(v)
		}
		intervals := []float64{f1, f2, f3}
		p := Plan{Groups: make([]GroupPlan, 1+next()%3)}
		for i := range p.Groups {
			T := 1 + next()%12
			o := float64(next()) / 32
			g := &Group{M: 1 + next()%8, T: T, O: o, R: o + float64(next())/32}
			price := float64(next()) / 64
			dist := make([]float64, T+1)
			sum := 0.0
			for k := range dist {
				dist[k] = float64(next())
				sum += dist[k]
			}
			if sum == 0 {
				dist[T], sum = 1, 1
			}
			for k := range dist {
				dist[k] /= sum
			}
			g.bids = map[float64]bidStats{1: {dist: &failure.Dist{T: T, P: dist}, price: price}}
			p.Groups[i] = GroupPlan{Group: g, Bid: 1, Interval: intervals[i]}
		}
		cat := cloud.DefaultCatalog()
		p.Recovery = NewOnDemand(app.BT(), cat[next()%len(cat)])
		if p.Validate() != nil {
			t.Skip()
		}
		assertEstimatesEqual(t, Evaluate(p), EvaluateBrute(p))
	})
}
