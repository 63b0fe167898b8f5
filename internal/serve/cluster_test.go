package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sompi/internal/cluster"
	"sompi/internal/store"
)

// These tests run a real 2-node cluster in-process: two Servers over
// their own WAL stores, fronted by real TCP listeners (followers and
// forwards dial fixed URLs, so httptest's lazy URL is not enough), plus
// single-node reference servers fed the identical tick sequence. The
// parity assertions are byte-level: a cluster must be observationally
// indistinguishable from one node, no matter which member answers.

// clusterHarness is one in-process cluster node with a real TCP front.
type clusterHarness struct {
	s   *Server
	srv *http.Server
	url string
}

// startClusterPair boots nodes "a" and "b" over ephemeral listeners.
// The listeners are bound before either server starts, so each node's
// follower can dial its peer from the first retry.
func startClusterPair(t *testing.T, probe time.Duration, failAfter int) (a, b *clusterHarness) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nodes := []cluster.Node{
		{Name: "a", URL: "http://" + lnA.Addr().String()},
		{Name: "b", URL: "http://" + lnB.Addr().String()},
	}
	mk := func(self string, ln net.Listener) *clusterHarness {
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatalf("store.Open(%s): %v", self, err)
		}
		s, err := New(Config{
			Market:      durableMarket(),
			WindowHours: 2,
			Store:       st,
			Cluster: &ClusterConfig{
				Self:          self,
				Nodes:         nodes,
				StandbyDir:    filepath.Join(dir, "standby"),
				ProbeInterval: probe,
				FailoverAfter: failAfter,
			},
		})
		if err != nil {
			t.Fatalf("serve.New(%s): %v", self, err)
		}
		h := &clusterHarness{s: s, srv: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String()}
		go h.srv.Serve(ln)
		return h
	}
	a = mk("a", lnA)
	b = mk("b", lnB)
	t.Cleanup(func() {
		a.srv.Close()
		b.srv.Close()
		// Server.Close stops the prober and followers before anything
		// else, so tearing the pair down in sequence never looks like a
		// failover to the survivor.
		if err := a.s.Close(); err != nil {
			t.Errorf("closing a: %v", err)
		}
		if err := b.s.Close(); err != nil {
			t.Errorf("closing b: %v", err)
		}
	})
	return a, b
}

// ingestFlat posts hours of flat 0.05 ticks for every market shard as
// one mixed ?sync=1 feed — the same deterministic sequence whichever
// target receives it — and returns the response body.
func ingestFlat(t *testing.T, url string, hours float64) []byte {
	t.Helper()
	samples := make([]float64, int(hours*12))
	for i := range samples {
		samples[i] = 0.05
	}
	var ticks []PriceTick
	for _, k := range durableMarket().Keys() {
		ticks = append(ticks, PriceTick{Type: k.Type, Zone: k.Zone, Prices: samples})
	}
	return durablePost(t, url+"/v1/prices?sync=1", ticks)
}

// clusterPlan is the deterministic untracked plan the parity tests
// compare byte-for-byte, optionally restricted to one shard.
func clusterPlan(types, zones []string) PlanRequest {
	return PlanRequest{
		App: "BT", DeadlineHours: 200,
		Workers: 1, DisablePruning: true,
		Types: types, Zones: zones,
	}
}

// stripSearchEffort removes the search-effort counters (evals, pruned,
// saved_evals) that legitimately vary with the serving node's
// reuse-cache history. Everything else — the plan, the estimate, the
// market version — must still match exactly: equal maps re-marshal to
// equal bytes (JSON object keys sort).
func stripSearchEffort(t *testing.T, raw []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("decoding plan response %s: %v", raw, err)
	}
	delete(m, "evals")
	delete(m, "pruned")
	delete(m, "saved_evals")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal(msg)
}

// A peer that answers 503 with a JSON error body is a failed read, not
// a peer whose WAL sits at {0,0} with zero re-optimizations: its status
// must not seed the ?sync=1 counter bases (a zero base makes the delta
// the peer's lifetime total), and the merged health view must call it
// unreachable.
func TestPeerGetRejectsNon200(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusServiceUnavailable, errIngestClosed)
	}))
	defer stub.Close()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Market: durableMarket(),
		Store:  st,
		Cluster: &ClusterConfig{
			Self:       "a",
			Nodes:      []cluster.Node{{Name: "a", URL: "http://127.0.0.1:1"}, {Name: "b", URL: stub.URL}},
			StandbyDir: filepath.Join(dir, "standby"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, ctx := s.cluster, context.Background()
	peer := c.topo.Peers()[0]

	if st, err := c.fetchStatus(ctx, peer); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("fetchStatus of a 503 peer = %+v, %v; want an error naming the status", st, err)
	}
	if base := c.peerCounters(ctx); len(base) != 0 {
		t.Fatalf("503 peer seeded counter bases: %v", base)
	}
	if c.healthOK(peer) {
		t.Fatal("prober counted a 503 as healthy")
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster/healthz", nil))
	var ch ClusterHealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ch); err != nil {
		t.Fatalf("merged healthz %s: %v", rec.Body, err)
	}
	if ch.Status != "degraded" || len(ch.Nodes) != 2 || ch.Nodes[1].Status != "unreachable" {
		t.Fatalf("merged healthz with a 503 peer: %+v", ch)
	}
}

// TestClusterForwardingAndPlanParity drives the happy path: disjoint
// covering ownership, mixed ingest splitting and forwarding by owner,
// and plans — proxied and local — byte-identical to single-node
// references fed the same traffic in the same per-server order.
func TestClusterForwardingAndPlanParity(t *testing.T) {
	a, b := startClusterPair(t, 50*time.Millisecond, 1000) // failover effectively off
	// Two references, because byte identity needs matching optimizer
	// histories per serving node: ref1 mirrors b's sequence (small, un),
	// ref2 mirrors a's (large, un).
	_, ref1 := newMemServer(t, Config{Market: durableMarket(), WindowHours: 2})
	_, ref2 := newMemServer(t, Config{Market: durableMarket(), WindowHours: 2})

	// Ownership: every shard exactly one owner, both nodes non-empty,
	// and the pinned assignments from the cluster package hold end-to-end.
	var stA, stB ClusterStatus
	if err := json.Unmarshal(durableGet(t, a.url+"/cluster/status"), &stA); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(durableGet(t, b.url+"/cluster/status"), &stB); err != nil {
		t.Fatal(err)
	}
	owned := map[string]string{}
	for _, sh := range stA.OwnedShards {
		owned[sh] = "a"
	}
	for _, sh := range stB.OwnedShards {
		if owned[sh] != "" {
			t.Fatalf("shard %s owned by both nodes", sh)
		}
		owned[sh] = "b"
	}
	keys := durableMarket().Keys()
	if len(owned) != len(keys) {
		t.Fatalf("ownership covers %d shards, want %d", len(owned), len(keys))
	}
	if len(stA.OwnedShards) == 0 || len(stB.OwnedShards) == 0 {
		t.Fatalf("degenerate split: a=%d b=%d", len(stA.OwnedShards), len(stB.OwnedShards))
	}
	if owned["m1.small/us-east-1a"] != "a" || owned["c3.xlarge/us-east-1a"] != "b" {
		t.Fatalf("pinned ownership drifted: %v", owned)
	}

	// A mixed feed through a forwards b's shards and barriers both ways:
	// afterwards every server — both members and both references — sits
	// at the same composite market version.
	fwdBefore := a.s.met.clusterForwardedPrices.Load()
	var pr PricesResponse
	if err := json.Unmarshal(ingestFlat(t, a.url, 2.5), &pr); err != nil {
		t.Fatal(err)
	}
	ingestFlat(t, ref1.URL, 2.5)
	ingestFlat(t, ref2.URL, 2.5)
	if a.s.met.clusterForwardedPrices.Load() == fwdBefore {
		t.Fatal("mixed feed through a never forwarded to b")
	}
	if pr.Ticks != len(keys) {
		t.Fatalf("mixed feed applied %d ticks, want %d (local + forwarded)", pr.Ticks, len(keys))
	}
	if va, vb := a.s.market.Version(), b.s.market.Version(); va != vb || va != pr.MarketVersion {
		t.Fatalf("post-barrier versions diverged: a=%d b=%d response=%d", va, vb, pr.MarketVersion)
	}

	c3x := clusterPlan([]string{"c3.xlarge"}, []string{"us-east-1a"})  // owner b
	small := clusterPlan([]string{"m1.small"}, []string{"us-east-1a"}) // owner a
	un := clusterPlan(nil, nil)

	// Restricted plan for a b-owned shard through a: proxied, and
	// byte-identical to a single node's answer.
	if got, want := durablePost(t, a.url+"/v1/plan", c3x), durablePost(t, ref1.URL+"/v1/plan", c3x); !bytes.Equal(got, want) {
		t.Fatalf("proxied plan diverged from the single node:\ncluster: %s\nsingle:  %s", got, want)
	}
	if a.s.met.clusterForwardedPlans.Load() == 0 {
		t.Fatal("plan for a b-owned shard was served locally, want proxied")
	}
	// And the mirror image through b.
	if got, want := durablePost(t, b.url+"/v1/plan", small), durablePost(t, ref2.URL+"/v1/plan", small); !bytes.Equal(got, want) {
		t.Fatalf("proxied plan through b diverged:\ncluster: %s\nsingle:  %s", got, want)
	}
	if b.s.met.clusterForwardedPlans.Load() == 0 {
		t.Fatal("plan for an a-owned shard was served locally on b, want proxied")
	}

	// Unrestricted plans serve locally on either node — the market is
	// fully replicated — and still match the references byte-for-byte.
	fwdA, fwdB := a.s.met.clusterForwardedPlans.Load(), b.s.met.clusterForwardedPlans.Load()
	if got, want := durablePost(t, a.url+"/v1/plan", un), durablePost(t, ref2.URL+"/v1/plan", un); !bytes.Equal(got, want) {
		t.Fatalf("unrestricted plan on a diverged:\ncluster: %s\nsingle:  %s", got, want)
	}
	if got, want := durablePost(t, b.url+"/v1/plan", un), durablePost(t, ref1.URL+"/v1/plan", un); !bytes.Equal(got, want) {
		t.Fatalf("unrestricted plan on b diverged:\ncluster: %s\nsingle:  %s", got, want)
	}
	if a.s.met.clusterForwardedPlans.Load() != fwdA || b.s.met.clusterForwardedPlans.Load() != fwdB {
		t.Fatal("unrestricted plans were proxied, want local (full replication)")
	}

	// A session tracked on b appears in the cluster-wide listing served
	// by a, under b's node-prefixed id.
	var plan PlanResponse
	if err := json.Unmarshal(durablePost(t, b.url+"/v1/plan", trackedPlan()), &plan); err != nil {
		t.Fatal(err)
	}
	if plan.SessionID != "b/s1" {
		t.Fatalf("session id on b = %q, want b/s1", plan.SessionID)
	}
	var infos []SessionInfo
	if err := json.Unmarshal(durableGet(t, a.url+"/v1/sessions"), &infos); err != nil {
		t.Fatal(err)
	}
	foundMerged := false
	for _, si := range infos {
		foundMerged = foundMerged || si.ID == "b/s1"
	}
	if !foundMerged {
		t.Fatalf("merged session listing through a misses b/s1: %+v", infos)
	}

	// Merged health: both nodes ok, the shard vector covers the market.
	var ch ClusterHealthResponse
	if err := json.Unmarshal(durableGet(t, a.url+"/cluster/healthz"), &ch); err != nil {
		t.Fatal(err)
	}
	if ch.Status != "ok" || len(ch.Nodes) != 2 {
		t.Fatalf("cluster health = %+v, want ok with 2 nodes", ch)
	}
	for _, n := range ch.Nodes {
		if n.Status != "ok" {
			t.Fatalf("node %s health = %s, want ok", n.Name, n.Status)
		}
	}
	if len(ch.Shards) != len(keys) {
		t.Fatalf("merged shard vector has %d entries, want %d", len(ch.Shards), len(keys))
	}

	// Merged metrics: one sample per node per gauge, node-labelled, with
	// family headers deduplicated.
	mb := string(durableGet(t, a.url+"/cluster/metrics"))
	if !strings.Contains(mb, `node="a"`) || !strings.Contains(mb, `node="b"`) {
		t.Fatal("merged metrics miss a node label")
	}
	if got := strings.Count(mb, "# HELP sompid_market_version "); got != 1 {
		t.Fatalf("family header repeated %d times, want deduplicated to 1", got)
	}
	if got := strings.Count(mb, "sompid_market_version{node="); got != 2 {
		t.Fatalf("market version sampled %d times, want once per node", got)
	}
}

// TestClusterFailoverPromotesShardsAndSessions is the kill-one-node
// acceptance: b dies, a promotes b's shards and its replicated session,
// and the promoted shard's plans stay byte-identical to a single node
// at the same market state.
func TestClusterFailoverPromotesShardsAndSessions(t *testing.T) {
	a, b := startClusterPair(t, 25*time.Millisecond, 3)
	_, ref := newMemServer(t, Config{Market: durableMarket(), WindowHours: 2})

	// A tracked session restricted to a b-owned shard, created through
	// a: the proxy lands it on b under b's node-prefixed id.
	tr := trackedPlan()
	tr.Types, tr.Zones = []string{"c3.xlarge"}, []string{"us-east-1a"}
	var plan PlanResponse
	if err := json.Unmarshal(durablePost(t, a.url+"/v1/plan", tr), &plan); err != nil {
		t.Fatal(err)
	}
	if plan.SessionID != "b/s1" {
		t.Fatalf("proxied tracked session id = %q, want b/s1", plan.SessionID)
	}

	// One window boundary through a: the session re-optimizes on b and
	// the peer drain carries the count back.
	var pr PricesResponse
	if err := json.Unmarshal(ingestFlat(t, a.url, 2.5), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Reoptimized < 1 {
		t.Fatalf("sync ingest reported %d re-optimizations, want >=1 (the session lives on b)", pr.Reoptimized)
	}
	// The re-opt's session record landed on b during the peer drain,
	// after that request's barrier; one empty flush replicates it, so
	// the state a adopts below is the post-re-opt one.
	durablePost(t, a.url+"/v1/prices?sync=1", []PriceTick{})

	// Failover only arms once a's detector has seen b healthy (a peer
	// that never came up is an operator problem, not a failover) — wait
	// for that before pulling the plug, or a kill inside the first probe
	// interval would never promote.
	waitFor(t, 10*time.Second, func() bool {
		var st ClusterStatus
		if err := json.Unmarshal(durableGet(t, a.url+"/cluster/status"), &st); err != nil {
			return false
		}
		for _, p := range st.PeersUp {
			if p == "b" {
				return true
			}
		}
		return false
	}, "a's failure detector never saw b healthy")

	// Kill b's front. Its probes stop answering; a must declare it dead
	// and promote.
	b.srv.Close()
	waitFor(t, 10*time.Second, func() bool {
		var st ClusterStatus
		if err := json.Unmarshal(durableGet(t, a.url+"/cluster/status"), &st); err != nil {
			return false
		}
		for _, p := range st.Promoted {
			if p == "b" {
				return true
			}
		}
		return false
	}, "a never promoted b after its HTTP front died")

	// The promoted shard now serves locally on a, byte-identical to a
	// fresh single node fed the same ticks (both answering their first
	// optimization, so even the effort counters agree).
	ingestFlat(t, ref.URL, 2.5)
	fwdPlans := a.s.met.clusterForwardedPlans.Load()
	c3x := clusterPlan([]string{"c3.xlarge"}, []string{"us-east-1a"})
	if got, want := durablePost(t, a.url+"/v1/plan", c3x), durablePost(t, ref.URL+"/v1/plan", c3x); !bytes.Equal(got, want) {
		t.Fatalf("promoted-shard plan diverged from the single node:\ncluster: %s\nsingle:  %s", got, want)
	}
	if a.s.met.clusterForwardedPlans.Load() != fwdPlans {
		t.Fatal("post-promotion plan was proxied, want local")
	}

	// The replicated session was adopted with its re-optimized state.
	var infos []SessionInfo
	if err := json.Unmarshal(durableGet(t, a.url+"/v1/sessions"), &infos); err != nil {
		t.Fatal(err)
	}
	adopted := false
	for _, si := range infos {
		if si.ID == "b/s1" {
			adopted = true
			if si.Reoptimized < 1 {
				t.Fatalf("adopted session lost its re-optimization history: %+v", si)
			}
		}
	}
	if !adopted {
		t.Fatalf("promoted node does not list the adopted session b/s1: %+v", infos)
	}

	// Post-failover ingest is all-local (no forwarding, dead peer
	// skipped by the barrier) and keeps the adopted session advancing
	// on a across the next window boundary.
	fwdPrices := a.s.met.clusterForwardedPrices.Load()
	var pr2 PricesResponse
	if err := json.Unmarshal(ingestFlat(t, a.url, 2.5), &pr2); err != nil {
		t.Fatal(err)
	}
	if pr2.Reoptimized < 1 {
		t.Fatalf("adopted session never re-optimized on a (got %d)", pr2.Reoptimized)
	}
	if a.s.met.clusterForwardedPrices.Load() != fwdPrices {
		t.Fatal("post-promotion ingest forwarded ticks to a dead peer")
	}

	// And the market keeps matching the single node after more ticks —
	// modulo the effort counters, which now reflect a's extra session
	// re-opt against ref's colder reuse cache.
	ingestFlat(t, ref.URL, 2.5)
	un := clusterPlan(nil, nil)
	got := stripSearchEffort(t, durablePost(t, a.url+"/v1/plan", un))
	want := stripSearchEffort(t, durablePost(t, ref.URL+"/v1/plan", un))
	if !bytes.Equal(got, want) {
		t.Fatalf("post-failover unrestricted plan diverged:\ncluster: %s\nsingle:  %s", got, want)
	}
}
