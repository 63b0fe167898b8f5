package serve

import (
	"testing"

	"sompi/internal/cloud"
)

// TestPlanKeyBytes pins planKey's text to the keys the fmt-built
// planKey produced, byte for byte: the key names entries in the plan
// cache and the single-flight, and a cache rebuilt from the same
// requests must find them. The cases cover restricted types and zones,
// strategy params (workers left out), tracked and untracked requests
// (Track is not a key field), a nil key list (the whole vector), keys
// repeated or missing from the vector, and floats %g writes in exponent
// form.
func TestPlanKeyBytes(t *testing.T) {
	a := cloud.MarketKey{Type: "m1.small", Zone: "us-east-1a"}
	b := cloud.MarketKey{Type: "c3.xlarge", Zone: "us-east-1b"}
	c := cloud.MarketKey{Type: "c3.xlarge", Zone: "us-east-1a"}
	d := cloud.MarketKey{Type: "cc2.8xlarge", Zone: "us-east-1c"}
	vv := cloud.VersionVector{a: 3, b: 17, c: 0, d: 18446744073709551615}
	all := []cloud.MarketKey{a, b, c, d}
	for _, tc := range []struct {
		name string
		req  PlanRequest
		keys []cloud.MarketKey
		want string
	}{
		{"default", PlanRequest{App: "BT", DeadlineHours: 60}, all,
			`BT|60|0|0|0|0|0|0|false|false|t:|z:|s:|sp{}|vv{c3.xlarge/us-east-1a:0,c3.xlarge/us-east-1b:17,cc2.8xlarge/us-east-1c:18446744073709551615,m1.small/us-east-1a:3}`},
		{"tracked", PlanRequest{App: "BT", DeadlineHours: 60, Track: true}, all,
			`BT|60|0|0|0|0|0|0|false|false|t:|z:|s:|sp{}|vv{c3.xlarge/us-east-1a:0,c3.xlarge/us-east-1b:17,cc2.8xlarge/us-east-1c:18446744073709551615,m1.small/us-east-1a:3}`},
		{"knobs", PlanRequest{
			App: "LAMMPS-128", DeadlineHours: 46.5, HistoryHours: 48, Kappa: 2, GridLevels: 3,
			MaxGroups: 3, Slack: 0.1, MaxAllFail: 0.05, DisableCheckpoints: true,
			DisablePruning: true, Workers: 4, Track: true,
		}, all, `LAMMPS-128|46.5|48|2|3|3|0.1|0.05|true|true|t:|z:|s:|sp{}|vv{c3.xlarge/us-east-1a:0,c3.xlarge/us-east-1b:17,cc2.8xlarge/us-east-1c:18446744073709551615,m1.small/us-east-1a:3}`},
		{"restricted", PlanRequest{
			App: "IS", DeadlineHours: 123.456, Types: []string{"m1.small", "c3.xlarge"},
			Zones: []string{"us-east-1a"},
		}, []cloud.MarketKey{a, c}, `IS|123.456|0|0|0|0|0|0|false|false|t:m1.small,c3.xlarge|z:us-east-1a|s:|sp{}|vv{c3.xlarge/us-east-1a:0,m1.small/us-east-1a:3}`},
		{"strategy params", PlanRequest{
			App: "FT", DeadlineHours: 80, Strategy: "sompi",
			StrategyParams: map[string]float64{"kappa": 3, "workers": 2, "grid_levels": 4, "slack": 0.15},
		}, all, `FT|80|0|0|0|0|0|0|false|false|t:|z:|s:sompi|sp{grid_levels=4,kappa=3,slack=0.15}|vv{c3.xlarge/us-east-1a:0,c3.xlarge/us-east-1b:17,cc2.8xlarge/us-east-1c:18446744073709551615,m1.small/us-east-1a:3}`},
		{"only workers", PlanRequest{
			App: "FT", DeadlineHours: 80, Strategy: "sompi",
			StrategyParams: map[string]float64{"workers": 2},
		}, all, `FT|80|0|0|0|0|0|0|false|false|t:|z:|s:sompi|sp{}|vv{c3.xlarge/us-east-1a:0,c3.xlarge/us-east-1b:17,cc2.8xlarge/us-east-1c:18446744073709551615,m1.small/us-east-1a:3}`},
		{"named strategy", PlanRequest{
			App: "SP", DeadlineHours: 1e21, Slack: 1e-7, Strategy: "portfolio",
			StrategyParams: map[string]float64{"alpha": 0.5, "beta": -2.5e-9},
		}, []cloud.MarketKey{d}, `SP|1e+21|0|0|0|0|1e-07|0|false|false|t:|z:|s:portfolio|sp{alpha=0.5,beta=-2.5e-09}|vv{cc2.8xlarge/us-east-1c:18446744073709551615}`},
		{"whole vector", PlanRequest{App: "BTIO", DeadlineHours: 0.1}, nil,
			`BTIO|0.1|0|0|0|0|0|0|false|false|t:|z:|s:|sp{}|vv{c3.xlarge/us-east-1a:0,c3.xlarge/us-east-1b:17,cc2.8xlarge/us-east-1c:18446744073709551615,m1.small/us-east-1a:3}`},
		{"repeated and missing keys", PlanRequest{App: "LU", DeadlineHours: 100, Zones: []string{"us-east-1b", "us-east-1z"}},
			[]cloud.MarketKey{b, {Type: "m1.small", Zone: "us-east-1z"}, b}, `LU|100|0|0|0|0|0|0|false|false|t:|z:us-east-1b,us-east-1z|s:|sp{}|vv{c3.xlarge/us-east-1b:17}`},
		{"no keys", PlanRequest{App: "LU", DeadlineHours: 100, Types: []string{"none"}},
			[]cloud.MarketKey{}, `LU|100|0|0|0|0|0|0|false|false|t:none|z:|s:|sp{}|vv{}`},
	} {
		if got := planKey(tc.req, vv, tc.keys); got != tc.want {
			t.Errorf("%s: key\n%q, want\n%q", tc.name, got, tc.want)
		}
	}
}
