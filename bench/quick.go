package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"time"

	"sompi/internal/serve"
)

// quickSmoke drives a slice of every workload's generated traffic at an
// in-process sompid (serve.New behind httptest, no child process, no
// pacing) and applies the run's own correctness checks: every record
// answered, version vector equal to the ticks sent, checked plans equal
// to the library path, re-optimizations equal to the library path's count. It is the unit-test-sized proof that all five
// generators produce traffic sompid accepts.
func quickSmoke(seed uint64, w io.Writer) error {
	for _, name := range workloadNames {
		start := time.Now()
		res, err := quickOne(name, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "quick %-15s attempted=%d failed=%d plans_checked=%g ticks_sent=%g reoptimizations_expected=%g in %.2fs\n",
			name, res.Attempted, res.Failed, res.Counts["plans_checked"], res.Counts["ticks_sent"], res.Counts["reoptimizations_expected"], time.Since(start).Seconds())
		if res.Failed > 0 || len(res.Problems) > 0 {
			return fmt.Errorf("%s: %v", name, res.Problems)
		}
	}
	return nil
}

func quickOne(name string, seed uint64) (*runResult, error) {
	cfg := serve.Config{Market: baseMarket()}
	if name == wlBoundary {
		cfg.WindowHours = boundaryWindow
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	clients := make([]*client, clientsFor(name))
	for i := range clients {
		clients[i] = newClient(ts.URL)
		defer clients[i].close()
	}

	res := newResult(name, seed, 0)
	g := newGenerator(name, seed)
	res.warm = g.warmup()
	if err := sendWarmup(name, clients, res.warm); err != nil {
		return nil, err
	}
	var recs []rec
	var results []result
	switch name {
	case wlPlanMiss:
		recs = g.pass(0)[:11] // the first and the eleventh are checked
	case wlIngest:
		recs = g.pass(0)[:200]
	case wlBoundary:
		recs = ladderRecords(name, seed, nil)
	default:
		recs = g.schedule(2)
		for i := range recs {
			recs[i].TimeMS = 0
		}
	}
	if openLoopWorkload(name) {
		results = openLoop(clients, recs, time.Now())
	} else {
		results, _ = closedLoop(clients, recs)
	}
	tally(res, recs, results)
	if err := checkVersionVector(res, clients[0], res.warm, recs); err != nil {
		return nil, err
	}
	var kept []rec
	var keptResults []result
	for i := range recs {
		if recs[i].keep && recs[i].plan != nil {
			kept = append(kept, recs[i])
			keptResults = append(keptResults, results[i])
		}
	}
	switch name {
	case wlPlanMiss:
		checkPlansAgainstLibrary(res, kept, keptResults, nil)
	case wlMixed, wlCluster:
		checkPlansAgainstLibrary(res, kept, keptResults, append(append([]rec(nil), res.warm...), recs...))
	case wlBoundary:
		if err := checkSessions(res, clients[0]); err != nil {
			return nil, err
		}
		reopts := 0
		for i := range recs {
			var pr serve.PricesResponse
			if !recs[i].register && json.Unmarshal(results[i].body, &pr) == nil {
				reopts += pr.Reoptimized
			}
		}
		checkBoundaryReopts(res, res.warm, recs, reopts)
	}
	return res, nil
}
