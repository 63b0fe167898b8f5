package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sompi/internal/app"
	"sompi/internal/baselines"
	"sompi/internal/cloud"
	"sompi/internal/opt"
	"sompi/internal/serve"
)

// FuzzPlanSpellings sends any JSON object to /v1/plan twice, once with
// no strategy and once with "strategy": "sompi", each to a fresh server
// on one small market (two instance types in two zones, so any knob the
// schema admits searches at most 28,560 leaves). The two spellings must
// give the same status, the same error body, or byte-identical plan
// bodies but for the "sompi" echo (B7); and every 200 must be the
// library path's plan for the same request, trained on the same window
// (B1). A body that is not a JSON object has no strategy field to spell
// and is skipped. The corpus in testdata/fuzz keeps what fuzz runs
// found: a key spelled "strAtegY", which encoding/json reads as the
// strategy field, and two unknown strategy_params, which were refused in
// map order, so the error text changed from one request to the next.
func FuzzPlanSpellings(f *testing.F) {
	m := cloud.GenerateMarket(cloud.Catalog{cloud.M1Medium, cloud.CC28XLarge},
		[]string{cloud.ZoneA, cloud.ZoneB}, 120, 16)
	for _, s := range []string{
		`{"app":"BT","deadline_hours":60}`,
		`{"app":"BT","deadline_hours":60,"strategy":"portfolio"}`,
		`{"app":"IS","deadline_hours":30,"kappa":2,"grid_levels":3,"max_groups":3,"workers":1}`,
		`{"app":"LAMMPS-128","deadline_hours":46.5,"strategy_params":{"kappa":1,"grid_levels":4}}`,
		`{"app":"FT","deadline_hours":80,"strategy_params":{"workers":2,"slack":0.3,"max_all_fail":0.1}}`,
		`{"app":"SP","deadline_hours":70,"disable_checkpoints":true,"disable_pruning":true,"kappa":2,"grid_levels":3}`,
		`{"app":"BT","deadline_hours":60,"types":["m1.medium"],"zones":["us-east-1b"],"track":true}`,
		`{"app":"LU","deadline_hours":90,"history_hours":24,"slack":0.1}`,
		`{"app":"BT","deadline_hours":60,"workers":300}`,
		`{"app":"BT","deadline_hours":60,"strategy_params":{"kappa":1,"bogus":5}}`,
		`{"app":"BT","deadline_hours":60,"strategy_params":{"kappa":1.5}}`,
		`{"app":"BT","deadline_hours":60,"types":["none"]}`,
		`{"app":"BT","deadline_hours":1}`,
		`{"app":"BT","deadline_hours":-5}`,
		`{"app":"nope","deadline_hours":60}`,
		`{"app":"BT","deadline_hours":60,"kappa":"two"}`,
		`{"app":"BT","deadline_hours":60,"unknown":1}`,
		`{}`,
		`[]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fields map[string]json.RawMessage
		if json.Unmarshal(body, &fields) != nil || fields == nil {
			return
		}
		// encoding/json matches field names case-insensitively, so every
		// spelling of the key is the strategy field.
		for k := range fields {
			if strings.EqualFold(k, "strategy") {
				delete(fields, k)
			}
		}
		plain, err := json.Marshal(fields)
		if err != nil {
			return
		}
		fields["strategy"] = json.RawMessage(`"sompi"`)
		named, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		code, got := postPlanTo(t, m, plain)
		namedCode, namedGot := postPlanTo(t, m, named)
		if code != namedCode {
			t.Fatalf("no strategy: %d %s\nsompi: %d %s", code, got, namedCode, namedGot)
		}
		if code != http.StatusOK {
			if !bytes.Equal(got, namedGot) {
				t.Fatalf("status %d, errors differ:\nno strategy: %s\nsompi: %s", code, got, namedGot)
			}
			return
		}
		var resp serve.PlanResponse
		if err := json.Unmarshal(namedGot, &resp); err != nil || resp.Strategy != "sompi" {
			t.Fatalf("sompi body %s (%v), want a plan echoing sompi", namedGot, err)
		}
		resp.Strategy = ""
		if unnamed, _ := json.Marshal(resp); !bytes.Equal(got, unnamed) {
			t.Fatalf("plan bodies differ:\nno strategy: %s\nsompi: %s", got, namedGot)
		}
		resp.SessionID = ""
		served, _ := json.Marshal(resp)
		if want := libraryPlanBody(t, m, plain); !bytes.Equal(served, want) {
			t.Fatalf("request %s: served plan differs from the library's:\n got %s\nwant %s", plain, served, want)
		}
	})
}

// postPlanTo posts body to /v1/plan on a fresh server over m.
func postPlanTo(t *testing.T, m *cloud.Market, body []byte) (int, []byte) {
	s, err := serve.New(serve.Config{Market: m})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	defer s.Close()
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code, bytes.TrimRight(rec.Body.Bytes(), "\n")
}

// libraryPlanBody is the library path for a request the server planned:
// the request's knobs, strategy_params over them, the trailing training
// window behind the candidate shards' frontier, OptimizeContext and the
// response encoding.
func libraryPlanBody(t *testing.T, m *cloud.Market, body []byte) []byte {
	var req serve.PlanRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		t.Fatalf("served a plan for %s, which does not decode: %v", body, err)
	}
	profile, ok := app.ByName(req.App)
	if !ok {
		t.Fatalf("served a plan for unknown app %q", req.App)
	}
	snap := m.Capture()
	history := float64(baselines.History)
	if req.HistoryHours > 0 {
		history = req.HistoryHours
	}
	frontier := snap.MinDurationFor(req.CandidateKeys(snap))
	lo := math.Max(0, frontier-history)
	cfg := req.Config(profile, snap.Window(lo, frontier-lo))
	for k, v := range req.StrategyParams {
		switch k {
		case "kappa":
			cfg.Kappa = int(v)
		case "grid_levels":
			cfg.GridLevels = int(v)
		case "max_groups":
			cfg.MaxGroups = int(v)
		case "slack":
			cfg.Slack = v
		case "max_all_fail":
			cfg.MaxAllFail = v
		case "disable_checkpoints":
			cfg.DisableCheckpoints = v != 0
		case "disable_pruning":
			cfg.DisablePruning = v != 0
		}
	}
	res, err := opt.OptimizeContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("served a plan for %s, the library fails: %v", body, err)
	}
	want, err := json.Marshal(serve.BuildPlanResponse(snap.Version(), res))
	if err != nil {
		t.Fatal(err)
	}
	return want
}
