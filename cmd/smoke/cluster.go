package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"sompi/internal/harness"
	"sompi/internal/serve"
)

// clusterStage is the 2-node failover gate. It runs real sompid
// processes end to end:
//
//  1. Topology: boot nodes a and b as a 2-node cluster plus a
//     single-node reference at the same market seed, and assert the
//     rendezvous ownership split is disjoint, covering, and
//     non-degenerate.
//  2. Twin-diff: synthesize a mixed capture (synchronous ingest across
//     both owners' shards, repeated plans, listings) with the harness
//     writer and replay it through sompi-replay against the single
//     node and the cluster target (`cluster=urlA,urlB`), requiring
//     exit 0, zero plan-byte diffs, zero field diffs, and the
//     per-target cache-hit floors.
//  3. Failover: create a tracked session that the proxy lands on b,
//     ingest past a window boundary so it re-optimizes, then SIGKILL
//     b mid-session. Node a must promote b's shards and sessions,
//     serve the promoted shard's next plan byte-identical to the
//     uninterrupted single node, list the adopted session, and keep
//     ingesting — and the merged /cluster/metrics and /cluster/healthz
//     views must stay sane with a dead member.
func clusterStage(e *env) error {
	// Cluster node URLs must be known before either process starts (the
	// -cluster-node flags carry them), so reserve two ephemeral ports up
	// front instead of letting the kernel pick at bind time.
	portA, err := harness.FreePort()
	if err != nil {
		return err
	}
	portB, err := harness.FreePort()
	if err != nil {
		return err
	}
	addrA, addrB := fmt.Sprintf("127.0.0.1:%d", portA), fmt.Sprintf("127.0.0.1:%d", portB)
	// -window 2: 2.5h of ticks crosses a session window boundary.
	common := []string{
		"-window", "2",
		"-cluster-node", "a=http://" + addrA,
		"-cluster-node", "b=http://" + addrB,
		"-cluster-probe", "50ms",
		"-cluster-failover-after", "3",
	}
	nodeA, err := e.startSompidAt(addrA, append([]string{"-data-dir", e.dir("node-a"), "-cluster-self", "a"}, common...)...)
	if err != nil {
		return err
	}
	defer nodeA.Kill()
	nodeB, err := e.startSompidAt(addrB, append([]string{"-data-dir", e.dir("node-b"), "-cluster-self", "b"}, common...)...)
	if err != nil {
		return err
	}
	defer nodeB.Kill()
	ref, err := e.startSompid("-window", "2")
	if err != nil {
		return err
	}
	defer ref.Kill()

	bShard, err := checkTopology(e, nodeA.URL, nodeB.URL)
	if err != nil {
		return fmt.Errorf("topology step: %w", err)
	}
	if err := clusterTwinDiff(e, ref.URL, nodeA.URL, nodeB.URL); err != nil {
		return fmt.Errorf("twin-diff step: %w", err)
	}
	if err := failover(e, nodeB, nodeA.URL, ref.URL, bShard); err != nil {
		return fmt.Errorf("failover step: %w", err)
	}
	return nil
}

// checkTopology asserts the rendezvous split over the default market is
// disjoint, covering, and gives both nodes work, then returns one shard
// owned by b (the node the failover step kills). It also waits until
// a's failure detector has seen b healthy: failover only arms after
// that, so killing earlier would never promote.
func checkTopology(e *env, urlA, urlB string) (string, error) {
	var stA, stB serve.ClusterStatus
	if err := harness.GetJSON(urlA+"/cluster/status", &stA); err != nil {
		return "", err
	}
	if err := harness.GetJSON(urlB+"/cluster/status", &stB); err != nil {
		return "", err
	}
	if len(stA.OwnedShards) == 0 || len(stB.OwnedShards) == 0 {
		return "", fmt.Errorf("degenerate ownership split: a=%d b=%d shards", len(stA.OwnedShards), len(stB.OwnedShards))
	}
	owned := map[string]string{}
	for _, sh := range stA.OwnedShards {
		owned[sh] = "a"
	}
	for _, sh := range stB.OwnedShards {
		if owned[sh] == "a" {
			return "", fmt.Errorf("shard %s claimed by both nodes", sh)
		}
		owned[sh] = "b"
	}
	if len(owned) != 12 {
		return "", fmt.Errorf("ownership covers %d shards, want 12", len(owned))
	}
	err := harness.Eventually(15*time.Second, "a's failure detector seeing b healthy", func() error {
		var st serve.ClusterStatus
		if err := harness.GetJSON(urlA+"/cluster/status", &st); err != nil {
			return err
		}
		if !slices.Contains(st.PeersUp, "b") {
			return fmt.Errorf("peers up: %v", st.PeersUp)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	e.say("ownership split a=%d b=%d shards, detector armed", len(stA.OwnedShards), len(stB.OwnedShards))
	return stB.OwnedShards[0], nil
}

// clusterTwinDiff replays a synthesized mixed capture against the single
// node and the cluster (entered through a; b is the fallback URL) and
// requires byte-level equivalence. Every plan in the capture is
// unrestricted, so both targets serve the identical optimization
// sequence locally — which keeps even the reuse-cache effort counters,
// and therefore the plan bytes, in lockstep.
func clusterTwinDiff(e *env, refURL, urlA, urlB string) error {
	capDir := e.dir("capture")
	w, err := harness.OpenWriter(capDir, 256)
	if err != nil {
		return err
	}
	planA, _ := json.Marshal(smokePlan())
	reqB := smokePlan()
	reqB.DeadlineHours = 90
	planB, _ := json.Marshal(reqB)
	feed, _ := json.Marshal(flatTicks(0.25))
	records := 0
	for round := 0; round < 6; round++ {
		recs := []harness.Record{
			// Mixed ingest: one batch covering every shard, so the entry
			// node keeps its own shards and forwards the peer's. ?sync=1
			// makes the cluster converge before the next record.
			{Endpoint: "prices", Method: "POST", Path: "/v1/prices?sync=1", Body: string(feed), Status: 200},
			// A fresh market version: the first plan misses, its repeat
			// must hit — on both targets (the per-target hit-rate floors).
			{Endpoint: "plan", Method: "POST", Path: "/v1/plan", Body: string(planA), Status: 200},
			{Endpoint: "plan", Method: "POST", Path: "/v1/plan", Body: string(planA), Status: 200},
			{Endpoint: "plan", Method: "POST", Path: "/v1/plan", Body: string(planB), Status: 200},
		}
		if round%3 == 0 {
			recs = append(recs, harness.Record{Endpoint: "strategies", Method: "GET", Path: "/v1/strategies", Status: 200})
		}
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				return err
			}
			records++
		}
	}
	if err := w.Close(); err != nil {
		return err
	}

	rules := e.dir("rules.json")
	if err := os.WriteFile(rules, []byte(`{
  "max_plan_diffs": 0,
  "max_field_diffs": 0,
  "max_transport_errors": 0,
  "min_cache_hit_rate": 0.1,
  "targets": {
    "single":  {"min_cache_hit_rate": 0.1},
    "cluster": {"min_cache_hit_rate": 0.1}
  },
  "endpoints": {
    "plan":   {"p99_ms": 60000, "max_error_rate": 0},
    "prices": {"p99_ms": 60000, "max_error_rate": 0}
  }
}
`), 0o644); err != nil {
		return err
	}
	rep, out, err := replayOK(e, "-log", capDir,
		"-target", "single="+refURL, "-target", "cluster="+urlA+","+urlB, "-rules", rules)
	if err != nil {
		return err
	}
	if rep.Records != records {
		return fmt.Errorf("report covers %d records, capture had %d", rep.Records, records)
	}
	if rep.PlanDiffs != 0 || rep.FieldDiffs != 0 || rep.TransportErrors != 0 {
		return fmt.Errorf("single node and cluster diverged: %d plan diffs, %d field diffs, %d transport errors\n%s",
			rep.PlanDiffs, rep.FieldDiffs, rep.TransportErrors, out)
	}
	e.say("twin-diff single vs cluster over %d records: 0 plan diffs, 0 field diffs", rep.Records)
	return nil
}

// failover kills node b mid-session and requires a to take over:
// promotion, the adopted session, byte-identical plans for the promoted
// shard, continued ingest, and sane merged views.
func failover(e *env, nodeB *harness.Proc, urlA, refURL, bShard string) error {
	ty, zone, ok := strings.Cut(bShard, "/")
	if !ok {
		return fmt.Errorf("malformed shard key %q", bShard)
	}
	restricted := smokePlan()
	restricted.Types, restricted.Zones = []string{ty}, []string{zone}

	// A tracked session on a b-owned shard, created through a: the proxy
	// must land it on b under b's node-prefixed session id.
	tracked := restricted
	tracked.Track = true
	var plan serve.PlanResponse
	if err := harness.PostJSON(urlA+"/v1/plan", tracked, &plan); err != nil {
		return err
	}
	if !strings.HasPrefix(plan.SessionID, "b/") {
		return fmt.Errorf("proxied tracked session id = %q, want b/ prefix", plan.SessionID)
	}

	// Cross a window boundary through b directly (mixed entry points:
	// the twin-diff ingested through a). The session re-optimizes on b;
	// an empty flush through a then replicates the re-optimized state,
	// so what a adopts below is current.
	var pr serve.PricesResponse
	if err := harness.PostJSON(nodeB.URL+"/v1/prices?sync=1", flatTicks(2.5), &pr); err != nil {
		return err
	}
	if pr.Reoptimized < 1 {
		return fmt.Errorf("sync ingest reported %d re-optimizations, want >=1", pr.Reoptimized)
	}
	if err := harness.PostJSON(refURL+"/v1/prices?sync=1", flatTicks(2.5), nil); err != nil {
		return err
	}
	if err := harness.PostJSON(urlA+"/v1/prices?sync=1", []serve.PriceTick{}, nil); err != nil {
		return err
	}

	// SIGKILL b mid-session. No shutdown hooks run — exactly the spot
	// interruption the paper's replication discipline is about.
	nodeB.Kill()
	err := harness.Eventually(20*time.Second, "a promoting b after SIGKILL", func() error {
		var st serve.ClusterStatus
		if err := harness.GetJSON(urlA+"/cluster/status", &st); err != nil {
			return err
		}
		if !slices.Contains(st.Promoted, "b") {
			return fmt.Errorf("promoted: %v", st.Promoted)
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.say("a promoted b's shards after SIGKILL")

	// The promoted shard's next plan, served by a, must be byte-identical
	// to the uninterrupted single node. Both processes ran the identical
	// unrestricted optimization sequence (the twin-diff replays against
	// each target), so even the search-effort counters agree.
	body, _ := json.Marshal(restricted)
	got, _, err := harness.Post(urlA+"/v1/plan", body)
	if err != nil {
		return err
	}
	want, _, err := harness.Post(refURL+"/v1/plan", body)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("promoted-shard plan diverged from the single node:\ncluster: %s\nsingle:  %s", got, want)
	}
	e.say("promoted-shard plan is byte-identical to the single node")

	// The adopted session must be first-class on a, with its pre-kill
	// re-optimization history intact.
	var sessions []serve.SessionInfo
	if err := harness.GetJSON(urlA+"/v1/sessions", &sessions); err != nil {
		return err
	}
	i := slices.IndexFunc(sessions, func(s serve.SessionInfo) bool { return s.ID == plan.SessionID })
	if i < 0 {
		return fmt.Errorf("adopted session %s missing from a's listing", plan.SessionID)
	}
	if sessions[i].Reoptimized < 1 {
		return fmt.Errorf("adopted session %s lost its re-optimization count", plan.SessionID)
	}

	// Post-failover ingest: a now owns everything, nothing is forwarded,
	// and the adopted session keeps re-optimizing locally.
	if err := harness.PostJSON(urlA+"/v1/prices?sync=1", flatTicks(2.5), &pr); err != nil {
		return err
	}
	if pr.Reoptimized < 1 {
		return fmt.Errorf("post-failover ingest reported %d re-optimizations, want >=1 (adopted session)", pr.Reoptimized)
	}
	if err := harness.PostJSON(refURL+"/v1/prices?sync=1", flatTicks(2.5), nil); err != nil {
		return err
	}
	// The adopted session's re-optimizations touch a's reuse cache (the
	// single node has no session), so effort counters may legitimately
	// differ now — everything else must still match exactly.
	if got, _, err = harness.Post(urlA+"/v1/plan", body); err != nil {
		return err
	}
	if want, _, err = harness.Post(refURL+"/v1/plan", body); err != nil {
		return err
	}
	gs, err := stripSearchEffort(got)
	if err != nil {
		return err
	}
	ws, err := stripSearchEffort(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(gs, ws) {
		return fmt.Errorf("post-failover plan diverged beyond search effort:\ncluster: %s\nsingle:  %s", got, want)
	}

	// Merged views with a dead member: /cluster/healthz reports b dead,
	// /cluster/metrics carries only a's samples (node-labelled, one
	// header per family) and records the promotion.
	var ch serve.ClusterHealthResponse
	if err := harness.GetJSON(urlA+"/cluster/healthz", &ch); err != nil {
		return err
	}
	wantStatus := map[string]string{"a": "ok", "b": "dead"}
	for _, n := range ch.Nodes {
		if want, ok := wantStatus[n.Name]; ok && n.Status != want {
			return fmt.Errorf("merged healthz: %s is %q, want %s", n.Name, n.Status, want)
		}
	}
	metrics, err := harness.Get(urlA + "/cluster/metrics")
	if err != nil {
		return err
	}
	text := string(metrics)
	if !strings.Contains(text, `node="a"`) {
		return fmt.Errorf("merged metrics carry no node=\"a\" samples")
	}
	if strings.Contains(text, `node="b"`) {
		return fmt.Errorf("merged metrics still carry node=\"b\" samples after promotion")
	}
	if got := strings.Count(text, "# HELP sompid_market_version "); got != 1 {
		return fmt.Errorf("merged metrics repeat the sompid_market_version header %d times, want 1", got)
	}
	if !strings.Contains(text, `sompid_cluster_promotions_total{node="a"} 1`) {
		return fmt.Errorf("merged metrics do not record a's promotion")
	}
	e.say("merged healthz and metrics are sane with a dead member")
	return nil
}

// stripSearchEffort drops the reuse-cache effort counters from a plan
// response; equal maps re-marshal to equal bytes (JSON keys sort).
func stripSearchEffort(raw []byte) ([]byte, error) {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("decoding plan response %s: %w", raw, err)
	}
	delete(m, "evals")
	delete(m, "pruned")
	delete(m, "saved_evals")
	return json.Marshal(m)
}
