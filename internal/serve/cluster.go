package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"sompi/internal/cloud"
	"sompi/internal/cluster"
	"sompi/internal/opt"
	"sompi/internal/store"
)

// This file threads internal/cluster through the service: a static
// N-node topology where each (type, AZ) market shard has exactly one
// owner (rendezvous hash of the shard key over the node names), every
// node replicates every peer's WAL into a local standby mirror, and a
// node whose peer dies promotes the mirrored shards and sessions to
// first-class local state.
//
// The replication model is full-market: a node's own WAL holds only the
// ticks it ingested (its owned shards) and its own sessions, while its
// live market holds ALL shards — peer-owned shards advance through the
// follower stream (cluster.Follower replays each shipped record into
// cloud.Market.ApplyTick). Because replication is byte-exact and
// per-shard ordered, a caught-up node's composite market version equals
// the single-node equivalent, which is what makes plans byte-identical
// no matter which node serves them.

// forwardedHeader marks a request another cluster node already routed:
// the receiver serves it locally and never re-forwards (loop guard).
const forwardedHeader = "X-Sompid-Forwarded"

const (
	// clusterChunkBytes bounds one shipped WAL chunk frame.
	clusterChunkBytes = 256 << 10
	// clusterHeartbeat paces keep-alive frames on an idle stream.
	clusterHeartbeat = 500 * time.Millisecond
)

// ClusterConfig parameterizes cluster mode. Requires Config.Store: WAL
// segment shipping is what replication is made of.
type ClusterConfig struct {
	// Self is this node's name; it must appear in Nodes.
	Self string
	// Nodes is the full static membership (at least 2, self included).
	Nodes []cluster.Node
	// StandbyDir holds one mirror directory per peer (<dir>/<peer>).
	StandbyDir string
	// ProbeInterval is the peer health-probe cadence; zero means 300ms.
	ProbeInterval time.Duration
	// FailoverAfter is how many consecutive probe failures — after the
	// peer has been seen healthy at least once — declare it dead and
	// trigger promotion; zero means 5.
	FailoverAfter int
	// BarrierTimeout bounds the ?sync=1 replication barrier; zero means
	// 10s. On timeout the request answers with whatever replicated.
	BarrierTimeout time.Duration
}

// walPosition is a (segment, offset) WAL byte position on the wire.
type walPosition struct {
	Segment uint64 `json:"segment"`
	Offset  int64  `json:"offset"`
}

func posGE(a, b walPosition) bool {
	return a.Segment > b.Segment || (a.Segment == b.Segment && a.Offset >= b.Offset)
}

// ClusterStatus is the GET /cluster/status payload: this node's view of
// the topology, its own WAL frontier, and how far it has mirrored each
// peer — the version-vector half of the merged cluster view.
type ClusterStatus struct {
	Self        string         `json:"self"`
	Nodes       []cluster.Node `json:"nodes"`
	Dead        []string       `json:"dead,omitempty"`
	Promoted    []string       `json:"promoted,omitempty"`
	OwnedShards []string       `json:"owned_shards"`
	WAL         walPosition    `json:"wal"`
	// Replicas maps peer name -> how far this node has mirrored (and
	// applied) that peer's WAL.
	Replicas map[string]walPosition `json:"replicas"`
	// StagedSessions counts warm-standby sessions held per peer, ready
	// for promotion.
	StagedSessions map[string]int `json:"staged_sessions,omitempty"`
	// PeersUp lists peers the failure detector has seen healthy at least
	// once this process lifetime — the arming condition for failover
	// (a peer that never came up is an operator problem, not a failover).
	PeersUp []string `json:"peers_up,omitempty"`
	// Reoptimized and Completed are this node's cumulative session
	// counters. Cumulative, not per-request: a session re-optimizes
	// whenever its watched shards advance — locally ingested or
	// replicated — so a peer coordinating a ?sync=1 flush diffs these
	// against the bases it captured at request start.
	Reoptimized int64 `json:"reoptimized"`
	Completed   int64 `json:"completed"`
}

// NodeHealth is one node's row in the merged /cluster/healthz view.
type NodeHealth struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// Status is "ok"/"degraded" (the node's own /healthz), "unreachable"
	// (probe failed just now), or "dead" (promoted away).
	Status         string `json:"status"`
	MarketVersion  uint64 `json:"market_version,omitempty"`
	ActiveSessions int64  `json:"active_sessions,omitempty"`
}

// ClusterHealthResponse is the GET /cluster/healthz payload: per-node
// health plus the merged per-shard max-version vector.
type ClusterHealthResponse struct {
	Status string        `json:"status"`
	Self   string        `json:"self"`
	Nodes  []NodeHealth  `json:"nodes"`
	Shards []ShardHealth `json:"shards"`
}

// clusterNode is the server's cluster state: topology, per-peer
// followers, the staged standby sessions, and the failure detector.
type clusterNode struct {
	s    *Server
	topo *cluster.Topology

	client      *http.Client // forwarding/proxy; no global timeout (requests carry contexts)
	probeClient *http.Client

	probeInterval  time.Duration
	failAfter      int
	barrierTimeout time.Duration

	// followers is fixed after init (one per peer); only the map values'
	// own synchronization applies.
	followers map[string]*cluster.Follower

	mu       sync.Mutex
	dead     map[string]bool
	seenUp   map[string]bool // peers seen healthy at least once (arms failover)
	promoted []string
	// staged holds each peer's replicated session states, every record
	// folded in (sessionState.fold) — the warm standby a promotion
	// registers.
	staged map[string]map[string]*sessionState

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// initCluster wires cluster mode into a fully constructed server: the
// standby mirrors are pre-replayed into the live market, followers
// start streaming, and the failure detector starts probing. Called at
// the end of New, after recovery and the scheduler/ingester exist.
func (s *Server) initCluster(cfg ClusterConfig) error {
	if s.store == nil {
		return fmt.Errorf("%w: cluster mode requires a store (replication ships WAL segments)", opt.ErrInvalidConfig)
	}
	if cfg.StandbyDir == "" {
		return fmt.Errorf("%w: cluster mode requires a standby directory", opt.ErrInvalidConfig)
	}
	topo, err := cluster.NewTopology(cfg.Self, cfg.Nodes)
	if err != nil {
		return err
	}
	c := &clusterNode{
		s:              s,
		topo:           topo,
		client:         &http.Client{},
		probeInterval:  cfg.ProbeInterval,
		failAfter:      cfg.FailoverAfter,
		barrierTimeout: cfg.BarrierTimeout,
		followers:      make(map[string]*cluster.Follower),
		dead:           make(map[string]bool),
		seenUp:         make(map[string]bool),
		staged:         make(map[string]map[string]*sessionState),
		stopCh:         make(chan struct{}),
	}
	if c.probeInterval <= 0 {
		c.probeInterval = 300 * time.Millisecond
	}
	if c.failAfter <= 0 {
		c.failAfter = 5
	}
	if c.barrierTimeout <= 0 {
		c.barrierTimeout = 10 * time.Second
	}
	// The probe timeout is deliberately decoupled from the probe cadence:
	// even the lock-light status endpoint can lag behind a loaded
	// scheduler, so a probe only fails on a dead-looking peer (refused,
	// reset, or seconds of silence) — never on one that is merely busy.
	probeTimeout := 4 * c.probeInterval
	if probeTimeout < time.Second {
		probeTimeout = time.Second
	}
	c.probeClient = &http.Client{Timeout: probeTimeout}
	s.cluster = c

	for _, peer := range topo.Peers() {
		dir := filepath.Join(cfg.StandbyDir, peer.Name)
		if err := c.preplayStandby(dir, peer.Name); err != nil {
			// A standby mirror the local replay rejects (torn beyond the
			// store's own repair, or behind a local state it cannot reach)
			// is rebuilt from scratch: wipe it and let the follower resync
			// from the peer's snapshot.
			s.log.Error("standby mirror unusable; resyncing from scratch",
				"peer", peer.Name, "error", err.Error())
			if rerr := os.RemoveAll(dir); rerr != nil {
				c.stopFollowers()
				return fmt.Errorf("wiping standby mirror %s: %w", dir, rerr)
			}
		}
		peerName := peer.Name
		f, err := cluster.StartFollower(cluster.FollowerConfig{
			Peer: peer,
			Dir:  dir,
			OnRecord: func(rec store.Record) error {
				return c.applyReplicated(peerName, rec)
			},
			OnSnapshot: func(payload []byte) error {
				return c.applyPeerSnapshot(peerName, payload)
			},
			Logf:          func(format string, args ...any) { s.log.Error(fmt.Sprintf(format, args...)) },
			RetryInterval: c.probeInterval,
		})
		if err != nil {
			c.stopFollowers()
			return fmt.Errorf("starting follower of %s: %w", peer.Name, err)
		}
		c.followers[peer.Name] = f
	}
	for _, peer := range topo.Peers() {
		c.wg.Add(1)
		go c.probe(peer)
	}
	s.log.Info("cluster mode", "self", topo.Self().Name, "nodes", len(topo.Nodes()),
		"owned_shards", len(c.ownedShards()))
	return nil
}

// stop shuts the failure detector and every follower down. Idempotent.
func (c *clusterNode) stop() {
	c.stopOnce.Do(func() {
		close(c.stopCh)
		c.wg.Wait()
		c.stopFollowers()
	})
}

func (c *clusterNode) stopFollowers() {
	for _, f := range c.followers {
		f.Stop()
	}
}

// preplayStandby replays a peer's mirrored WAL into the live market and
// the staged session set, then truncates any torn tail — establishing
// the follower's pre-Start contract (resume position is a record
// boundary, nothing already mirrored is re-delivered).
func (c *clusterNode) preplayStandby(dir, peer string) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	rerr := st.Recover(
		func(payload []byte) error { return c.applyPeerSnapshot(peer, payload) },
		func(rec store.Record) error { return c.applyReplicated(peer, rec) },
	)
	cerr := st.Close()
	if rerr != nil {
		return rerr
	}
	return cerr
}

// applyReplicated lands one replicated WAL record from a peer: ticks
// apply to the live market (idempotently, by shard version — the same
// replay path crash recovery uses) and wake the re-optimization
// scheduler; session transitions stage the peer's latest state for
// promotion.
func (c *clusterNode) applyReplicated(peer string, rec store.Record) error {
	switch rec.Type {
	case store.RecordTick:
		tick, err := store.DecodeTick(rec.Payload)
		if err != nil {
			return err
		}
		key := cloud.MarketKey{Type: tick.Type, Zone: tick.Zone}
		if err := c.s.market.ApplyTick(key, tick.Prices, tick.Version); err != nil {
			return err
		}
		c.s.sched.shardAdvanced(key)
		return nil
	case store.RecordSession:
		st, err := decodeSessionRecord(rec.Payload)
		if err != nil {
			return err
		}
		return c.stageSession(peer, st)
	default:
		return nil // newer record kinds ship through untouched
	}
}

// applyPeerSnapshot merges one shipped snapshot: market shards land
// forward-only (a lagging shipped state never rewinds locally applied
// records) and every session in the capture is staged.
func (c *clusterNode) applyPeerSnapshot(peer string, payload []byte) error {
	var snap snapshotPayload
	if err := json.Unmarshal(payload, &snap); err != nil {
		return fmt.Errorf("decoding replicated snapshot: %w", err)
	}
	if _, err := c.s.market.MergeShards(snap.Market); err != nil {
		return err
	}
	for _, st := range snap.Sessions {
		if err := c.stageSession(peer, st); err != nil {
			return err
		}
	}
	for _, ms := range snap.Market {
		c.s.sched.shardAdvanced(cloud.MarketKey{Type: ms.Type, Zone: ms.Zone})
	}
	return nil
}

// stageSession folds one replicated record into the peer session's
// staged state, by the rule recovery replays with.
func (c *clusterNode) stageSession(peer string, rec sessionState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.staged[peer]
	if m == nil {
		m = make(map[string]*sessionState)
		c.staged[peer] = m
	}
	_, err := foldInto(m, rec)
	return err
}

// --- ownership and routing ---

func (c *clusterNode) selfName() string { return c.topo.Self().Name }

// ownerOf resolves a shard's current owner under the live dead set.
func (c *clusterNode) ownerOf(shard string) cluster.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.topo.OwnerAlive(shard, c.dead)
}

func (c *clusterNode) isDead(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead[name]
}

// ownedShards lists the market shards this node currently owns, in the
// market's deterministic key order.
func (c *clusterNode) ownedShards() []string {
	var out []string
	for _, k := range c.s.market.Keys() {
		if c.ownerOf(k.String()).Name == c.selfName() {
			out = append(out, k.String())
		}
	}
	return out
}

// planOwner resolves which node serves a plan request: the owner of the
// request's first candidate shard. CandidateKeys returns keys in the
// market's fixed order, so the routing shard — and therefore the node —
// is deterministic for a given request. Unrestricted requests (no
// Types/Zones filter) serve locally: the market is fully replicated, so
// any node answers them byte-identically.
func (c *clusterNode) planOwner(req PlanRequest) (cluster.Node, bool) {
	keys := req.CandidateKeys(c.s.market)
	if len(keys) == 0 {
		return cluster.Node{}, false
	}
	n := c.ownerOf(keys[0].String())
	if n.Name == "" || n.Name == c.selfName() {
		return cluster.Node{}, false
	}
	return n, true
}

// proxyPlan forwards a plan request body verbatim to the owning node
// and relays the response — status, body bytes and the X-Sompid-Cache
// header, so cache observability survives the hop.
func (c *clusterNode) proxyPlan(w http.ResponseWriter, r *http.Request, owner cluster.Node, body []byte) {
	c.s.met.clusterForwardedPlans.Add(1)
	u := owner.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, "1")
	if id := w.Header().Get("X-Request-Id"); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: proxying plan to %s: %v", owner.Name, err))
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: reading %s's plan response: %v", owner.Name, err))
		return
	}
	if ch := resp.Header.Get("X-Sompid-Cache"); ch != "" {
		w.Header().Set("X-Sompid-Cache", ch)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	w.Write(b)
}

// forwardPrices POSTs a tick batch (or, with nil ticks, an empty
// operational flush) to a peer's ingest endpoint with the loop guard
// set, and decodes its response for merging.
func (c *clusterNode) forwardPrices(ctx context.Context, name string, ticks []PriceTick, sync bool) (PricesResponse, error) {
	node, ok := c.topo.Lookup(name)
	if !ok {
		return PricesResponse{}, fmt.Errorf("cluster: unknown node %q", name)
	}
	var body io.Reader
	if len(ticks) > 0 {
		b, err := json.Marshal(ticks)
		if err != nil {
			return PricesResponse{}, err
		}
		body = bytes.NewReader(b)
	}
	u := node.URL + "/v1/prices"
	if sync {
		u += "?sync=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, body)
	if err != nil {
		return PricesResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, "1")
	c.s.met.clusterForwardedPrices.Add(1)
	resp, err := c.client.Do(req)
	if err != nil {
		return PricesResponse{}, fmt.Errorf("cluster: forwarding prices to %s: %v", name, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return PricesResponse{}, fmt.Errorf("cluster: reading %s's ingest response: %v", name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return PricesResponse{}, fmt.Errorf("cluster: node %s answered ingest with %d: %s", name, resp.StatusCode, clip(string(b), 256))
	}
	var pr PricesResponse
	if err := json.Unmarshal(b, &pr); err != nil {
		return PricesResponse{}, fmt.Errorf("cluster: decoding %s's ingest response: %v", name, err)
	}
	return pr, nil
}

// peerGet is the one read of a peer's HTTP surface: GET path under the
// probe timeout, at most limit bytes of body. Anything but 200 is an
// error carrying the status — a peer answering 503 with a JSON error
// body must never decode into a zero-valued view of its state.
func (c *clusterNode) peerGet(ctx context.Context, node cluster.Node, path string, limit int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node.URL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.probeClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, fmt.Errorf("cluster: reading %s%s: %w", node.Name, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: node %s answered %s with %d: %s", node.Name, path, resp.StatusCode, clip(string(body), 256))
	}
	return body, nil
}

// fetchStatus reads a peer's /cluster/status.
func (c *clusterNode) fetchStatus(ctx context.Context, node cluster.Node) (ClusterStatus, error) {
	var st ClusterStatus
	body, err := c.peerGet(ctx, node, "/cluster/status", 1<<20)
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return st, err
}

// syncBarrier blocks until replication has caught up in both
// directions with every live peer: the peer's mirror of this node's
// WAL has reached this node's current position, and this node's mirror
// of the peer's WAL has reached the position the peer reported when
// the barrier began. Under concurrent ingest the barrier is a lower
// bound (later traffic may extend the wait, never shorten it); at
// concurrency 1 it makes ?sync=1 responses — and any plan served
// afterwards by either node — reflect a fully converged market, which
// is the byte-parity anchor the cluster twin-diff leans on. Dead peers
// are skipped; the timeout bounds a peer dying mid-barrier.
func (c *clusterNode) syncBarrier(ctx context.Context) {
	mySeg, myOff := c.s.store.Position()
	mine := walPosition{Segment: mySeg, Offset: myOff}
	deadline := time.Now().Add(c.barrierTimeout)
	for _, peer := range c.topo.Peers() {
		var peerTarget *walPosition
		for time.Now().Before(deadline) && ctx.Err() == nil {
			if c.isDead(peer.Name) {
				break
			}
			st, err := c.fetchStatus(ctx, peer)
			if err == nil {
				if peerTarget == nil {
					p := st.WAL
					peerTarget = &p
				}
				caughtRemote := posGE(st.Replicas[c.selfName()], mine)
				caughtLocal := true
				if f := c.followers[peer.Name]; f != nil {
					fs, fo := f.Position()
					caughtLocal = posGE(walPosition{Segment: fs, Offset: fo}, *peerTarget)
				}
				if caughtRemote && caughtLocal {
					break
				}
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
}

// drainPeers runs an empty ?sync=1 flush on every live peer — after the
// barrier replicated this request's ticks to them — so their sessions'
// released re-optimizations settle before peerDelta reads the counters.
func (c *clusterNode) drainPeers(ctx context.Context) {
	for _, peer := range c.topo.Peers() {
		if c.isDead(peer.Name) {
			continue
		}
		// Errors stay best-effort: the prober will notice a dead peer.
		c.forwardPrices(ctx, peer.Name, nil, true)
	}
}

// peerCounts is one peer's cumulative session counters.
type peerCounts struct{ reoptimized, completed int64 }

// peerCounters samples every live peer's cumulative counters. Called
// once when a ?sync=1 request arrives (the bases) and once after the
// barrier and drain (the deltas): a peer's re-optimizations run off the
// request path whenever replication advances its shards, so per-request
// deltas measured on the peer would miss work that settled before the
// drain flush arrived.
func (c *clusterNode) peerCounters(ctx context.Context) map[string]peerCounts {
	out := make(map[string]peerCounts)
	for _, peer := range c.topo.Peers() {
		if c.isDead(peer.Name) {
			continue
		}
		st, err := c.fetchStatus(ctx, peer)
		if err != nil {
			continue
		}
		out[peer.Name] = peerCounts{reoptimized: st.Reoptimized, completed: st.Completed}
	}
	return out
}

// peerDelta sums how far each peer's counters moved past the captured
// bases. Peers absent from the base sample are skipped — without a base
// their cumulative totals cannot be attributed to this request.
func (c *clusterNode) peerDelta(ctx context.Context, base map[string]peerCounts) (reoptimized, completed int) {
	if len(base) == 0 {
		return 0, 0
	}
	now := c.peerCounters(ctx)
	for name, b := range base {
		n, ok := now[name]
		if !ok {
			continue
		}
		reoptimized += int(n.reoptimized - b.reoptimized)
		completed += int(n.completed - b.completed)
	}
	return reoptimized, completed
}

// --- failure detection and promotion ---

// probe is one peer's failure detector: it declares the peer dead — and
// promotes its shards — after failAfter consecutive failed health
// checks, but only once the peer has been seen healthy at least once
// this process lifetime (a peer that never came up is an operator
// problem, not a failover).
func (c *clusterNode) probe(peer cluster.Node) {
	defer c.wg.Done()
	t := time.NewTicker(c.probeInterval)
	defer t.Stop()
	fails := 0
	// The first probe runs immediately, not a tick from now: arming the
	// detector must not lose a race against a peer that comes up, does
	// useful work, and dies all inside the first probe interval.
	for first := true; ; first = false {
		if !first {
			select {
			case <-c.stopCh:
				return
			case <-t.C:
			}
		}
		if c.isDead(peer.Name) {
			return
		}
		if c.healthOK(peer) {
			c.mu.Lock()
			c.seenUp[peer.Name] = true
			c.mu.Unlock()
			fails = 0
			continue
		}
		c.mu.Lock()
		armed := c.seenUp[peer.Name]
		c.mu.Unlock()
		if !armed {
			continue
		}
		fails++
		if fails >= c.failAfter {
			c.promote(peer)
			return
		}
	}
}

// healthOK reports whether a peer's HTTP front answers. It probes
// /cluster/status, not /healthz: the status read touches only the WAL
// position and follower cursors, while /healthz aggregates per-shard
// stats whose read locks queue behind ingest writers — on a node busy
// applying ticks it can stall past the probe timeout, and a
// busy-but-alive node is exactly what a failure detector must never
// declare dead.
func (c *clusterNode) healthOK(peer cluster.Node) bool {
	_, err := c.peerGet(context.Background(), peer, "/cluster/status", 1<<16)
	return err == nil
}

// promote takes over a dead peer: the follower stops, the staged
// sessions register as first-class local sessions (event-sourced into
// this node's own WAL), a snapshot makes the adopted shard versions
// durable locally, and the ownership view flips — OwnerAlive now routes
// the peer's shards here, so ingest and plans for them serve locally.
// Promotion is one-way: a node that comes back is not re-admitted (the
// static topology has no rejoin protocol; see DESIGN.md §15).
func (c *clusterNode) promote(peer cluster.Node) {
	c.mu.Lock()
	if c.dead[peer.Name] {
		c.mu.Unlock()
		return
	}
	c.dead[peer.Name] = true
	c.promoted = append(c.promoted, peer.Name)
	staged := c.staged[peer.Name]
	delete(c.staged, peer.Name)
	c.mu.Unlock()

	// Stop streaming first: everything mirrored is already applied, and
	// the staged set must be final before registration.
	if f := c.followers[peer.Name]; f != nil {
		f.Stop()
	}

	s := c.s
	ids := make([]string, 0, len(staged))
	for id := range staged {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	adopted := 0
	for _, id := range ids {
		st := staged[id]
		s.mu.Lock()
		if _, exists := s.sessions[id]; exists {
			s.mu.Unlock()
			continue
		}
		t, err := s.materializeSession(*st)
		if err != nil {
			s.mu.Unlock()
			s.log.Error("adopting replicated session failed", "session", id, "error", err.Error())
			continue
		}
		// Event-source the adoption into our own WAL (Seq advances past
		// the replicated state, so replays converge on this record) and
		// publish exactly as registration does.
		s.persistSession(t)
		s.sessions[id] = t
		s.order = append(s.order, id)
		if !t.done {
			s.met.activeSessions.Add(1)
			s.sched.add(t)
		} else {
			s.met.completedSessions.Add(1)
		}
		s.mu.Unlock()
		adopted++
	}
	s.met.clusterPromotions.Add(1)
	s.met.clusterAdoptedSessions.Add(int64(adopted))

	// Adopted shard versions exist in memory and in the standby mirror,
	// but not in this node's own WAL — cut a snapshot before the first
	// post-promotion append lands on them, so a restart of THIS node
	// recovers the adopted state from its own data dir.
	if err := s.cutSnapshot(); err != nil {
		s.log.Error("post-promotion snapshot failed", "error", err.Error())
	}
	s.log.Info("promoted dead peer's shards", "peer", peer.Name,
		"adopted_sessions", adopted, "owned_shards", len(c.ownedShards()))
}

// sample captures the cluster gauges for one /metrics render.
func (c *clusterNode) sample() clusterMetricsSample {
	out := clusterMetricsSample{enabled: true, ownedShards: len(c.ownedShards())}
	for _, f := range c.followers {
		if f.Connected() {
			out.peersConnected++
		}
		out.replicatedRecords += f.Records()
		out.replicatedSnapshots += f.Snapshots()
		out.resyncs += f.Resyncs()
		out.replicationErrors += f.Errors()
	}
	return out
}

// --- HTTP handlers ---

// handleClusterWAL streams this node's WAL to a follower: chunk frames
// from the requested (segment, offset), a snapshot frame whenever the
// follower's position predates compaction, a reset frame when the
// follower is ahead of anything this store ever wrote (divergence), and
// heartbeats while idle. The stream lives until the client disconnects
// or the store closes.
func (s *Server) handleClusterWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	seg, err1 := strconv.ParseUint(q.Get("seg"), 10, 64)
	off, err2 := strconv.ParseInt(q.Get("off"), 10, 64)
	if err1 != nil || err2 != nil || off < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: bad seg/off", opt.ErrInvalidConfig))
		return
	}
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)

	shipSnapshot := func() (uint64, bool) {
		snapSeq, data, err := s.store.ReadSnapshotFile()
		if err != nil {
			return 0, false
		}
		if err := cluster.WriteSnapshotFrame(w, snapSeq, data); err != nil {
			return 0, false
		}
		return snapSeq, true
	}

	if seg == 0 {
		// Fresh follower: lead with the newest snapshot (if any) and
		// stream from its boundary.
		snapSeq, firstSeg := s.store.ShipStart()
		if snapSeq > 0 {
			sq, ok := shipSnapshot()
			if !ok {
				return
			}
			seg, off = sq, 0
		} else {
			seg, off = firstSeg, 0
		}
		flush()
	}

	ctx := r.Context()
	for {
		if ctx.Err() != nil {
			return
		}
		// Arm before reading: an append between the last read and the
		// wait below closes this channel, so nothing is missed.
		ch := s.store.AppendSignal()
	read:
		for {
			data, sealed, err := s.store.ReadChunk(seg, off, clusterChunkBytes)
			switch {
			case errors.Is(err, store.ErrSegmentCompacted):
				sq, ok := shipSnapshot()
				if !ok {
					cluster.WriteFrame(w, cluster.FrameReset, nil)
					flush()
					return
				}
				seg, off = sq, 0
				flush()
				continue
			case errors.Is(err, store.ErrOutOfRange):
				// The follower claims a position this store never reached:
				// it mirrors someone else's bytes (or a wiped-and-recreated
				// store). Force a from-scratch resync.
				cluster.WriteFrame(w, cluster.FrameReset, nil)
				flush()
				return
			case err != nil:
				return // store closed or I/O failure: drop the stream
			}
			if len(data) > 0 {
				if werr := cluster.WriteChunkFrame(w, seg, off, data); werr != nil {
					return
				}
				off += int64(len(data))
				flush()
				continue
			}
			if sealed {
				seg, off = seg+1, 0
				continue
			}
			break read // caught up with the active segment
		}
		select {
		case <-ch:
		case <-time.After(clusterHeartbeat):
			if err := cluster.WriteFrame(w, cluster.FrameHeartbeat, nil); err != nil {
				return
			}
			flush()
		case <-ctx.Done():
			return
		}
	}
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	seg, off := s.store.Position()
	c.mu.Lock()
	dead := make([]string, 0, len(c.dead))
	for name := range c.dead {
		dead = append(dead, name)
	}
	sort.Strings(dead)
	promoted := append([]string(nil), c.promoted...)
	stagedCounts := make(map[string]int, len(c.staged))
	for peer, m := range c.staged {
		stagedCounts[peer] = len(m)
	}
	peersUp := make([]string, 0, len(c.seenUp))
	for name := range c.seenUp {
		peersUp = append(peersUp, name)
	}
	sort.Strings(peersUp)
	c.mu.Unlock()
	replicas := make(map[string]walPosition, len(c.followers))
	for name, f := range c.followers {
		fs, fo := f.Position()
		replicas[name] = walPosition{Segment: fs, Offset: fo}
	}
	writeJSON(w, http.StatusOK, ClusterStatus{
		Self:           c.selfName(),
		Nodes:          c.topo.Nodes(),
		Dead:           dead,
		Promoted:       promoted,
		OwnedShards:    c.ownedShards(),
		WAL:            walPosition{Segment: seg, Offset: off},
		Replicas:       replicas,
		StagedSessions: stagedCounts,
		PeersUp:        peersUp,
		Reoptimized:    s.met.reoptimizations.Load(),
		Completed:      s.met.completedSessions.Load(),
	})
}

// handleClusterHealthz merges every node's /healthz into one cluster
// view: per-node status rows plus the per-shard max-version vector
// across the cluster.
func (s *Server) handleClusterHealthz(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	overall := "ok"
	maxShards := make(map[string]ShardHealth)
	fold := func(hr HealthResponse) {
		for _, sh := range hr.Shards {
			if cur, ok := maxShards[sh.Market]; !ok || sh.Version > cur.Version {
				maxShards[sh.Market] = sh
			}
		}
	}
	var nodes []NodeHealth
	for _, n := range c.topo.Nodes() {
		row := NodeHealth{Name: n.Name, URL: n.URL}
		switch {
		case n.Name == c.selfName():
			hr := s.healthResponse()
			row.Status = hr.Status
			row.MarketVersion = hr.MarketVersion
			row.ActiveSessions = hr.ActiveSessions
			fold(hr)
		case c.isDead(n.Name):
			row.Status = "dead"
		default:
			var hr HealthResponse
			body, err := c.peerGet(r.Context(), n, "/healthz", 1<<20)
			if err == nil {
				err = json.Unmarshal(body, &hr)
			}
			if err != nil {
				row.Status = "unreachable"
				overall = "degraded"
			} else {
				row.Status = hr.Status
				row.MarketVersion = hr.MarketVersion
				row.ActiveSessions = hr.ActiveSessions
				fold(hr)
			}
		}
		if row.Status == "degraded" {
			overall = "degraded"
		}
		nodes = append(nodes, row)
	}
	shards := make([]ShardHealth, 0, len(maxShards))
	for _, sh := range maxShards {
		shards = append(shards, sh)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].Market < shards[j].Market })
	writeJSON(w, http.StatusOK, ClusterHealthResponse{
		Status: overall,
		Self:   c.selfName(),
		Nodes:  nodes,
		Shards: shards,
	})
}

// handleClusterMetrics concatenates every reachable node's /metrics
// exposition into one cluster-wide page, tagging each sample line with
// a node label and deduplicating family headers (every node runs the
// same binary, so the first occurrence speaks for all).
func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	type exposition struct {
		node string
		text string
	}
	var parts []exposition
	var self bytes.Buffer
	s.writeMetricsTo(&self)
	for _, n := range c.topo.Nodes() {
		switch {
		case n.Name == c.selfName():
			parts = append(parts, exposition{n.Name, self.String()})
		case c.isDead(n.Name):
			// A dead node exports nothing; its shards report through the
			// promoting node's exposition.
		default:
			text, err := c.peerGet(r.Context(), n, "/metrics", 8<<20)
			if err == nil {
				parts = append(parts, exposition{n.Name, string(text)})
			}
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	seen := make(map[string]bool)
	for _, p := range parts {
		for _, line := range bytes.Split([]byte(p.text), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			if line[0] == '#' {
				// "# HELP name ..." / "# TYPE name ...": dedupe per family.
				fields := bytes.Fields(line)
				if len(fields) >= 3 {
					key := string(fields[1]) + " " + string(fields[2])
					if seen[key] {
						continue
					}
					seen[key] = true
				}
				w.Write(line)
				w.Write([]byte("\n"))
				continue
			}
			w.Write(injectNodeLabel(line, p.node))
			w.Write([]byte("\n"))
		}
	}
}

// injectNodeLabel rewrites one exposition sample line to carry
// node="name" as its first label. The metric name never contains '{'
// or spaces, so splitting on the first of either is sound.
func injectNodeLabel(line []byte, node string) []byte {
	brace := bytes.IndexByte(line, '{')
	space := bytes.IndexByte(line, ' ')
	if space < 0 {
		return line // not a sample line; pass through
	}
	label := `node="` + escapeLabel(node) + `"`
	var out bytes.Buffer
	if brace >= 0 && brace < space {
		out.Write(line[:brace+1])
		out.WriteString(label)
		out.WriteByte(',')
		out.Write(line[brace+1:])
	} else {
		out.Write(line[:space])
		out.WriteByte('{')
		out.WriteString(label)
		out.WriteByte('}')
		out.Write(line[space:])
	}
	return out.Bytes()
}

// mergeSessions builds the cluster-wide session listing: each node's
// sessions in topology (node-name) order. Dead peers contribute
// nothing directly — their adopted sessions already appear in the
// promoting node's local list.
func (c *clusterNode) mergeSessions(ctx context.Context, local []sessionListing) []sessionListing {
	out := make([]sessionListing, 0, len(local))
	for _, n := range c.topo.Nodes() {
		if n.Name == c.selfName() {
			out = append(out, local...)
			continue
		}
		if c.isDead(n.Name) {
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/v1/sessions", nil)
		if err != nil {
			continue
		}
		req.Header.Set(forwardedHeader, "1")
		resp, err := c.client.Do(req)
		if err != nil {
			continue
		}
		var infos []sessionListing
		derr := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&infos)
		resp.Body.Close()
		if derr != nil {
			continue
		}
		out = append(out, infos...)
	}
	return out
}
