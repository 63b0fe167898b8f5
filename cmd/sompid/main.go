// Command sompid runs the SOMPI planner as a long-lived HTTP/JSON
// service: plan, evaluate and Monte Carlo requests against a live,
// versioned spot market that grows through streaming price ingestion.
//
// Usage:
//
//	sompid [-addr :8377] [-seed 42] [-hours 720] [-traces DIR]
//	       [-window 15] [-history 96] [-cache 256] [-timeout 60s]
//	       [-retain 0] [-log-format text|ndjson] [-log-level info]
//	       [-trace-ring 4096] [-data-dir DIR] [-fsync]
//	       [-ingest-queue 1024] [-reopt-workers 4]
//	       [-cluster-self a -cluster-node a=URL -cluster-node b=URL ...]
//
// The market is either synthesized (-seed/-hours) or loaded from a
// cmd/tracegen CSV directory (-traces). With -data-dir, every ingested
// tick and session transition is written to a checksummed WAL under DIR
// before it is applied, a snapshot is cut whenever the WAL written since
// the last one outweighs both one segment and that snapshot (so
// snapshots cost no more bytes than the log they retire, and replay
// stays bounded), and a restart recovers the exact pre-crash market and
// session state before accepting traffic. Without -data-dir the service
// is purely in-memory, exactly as before. The v1 API:
//
//	POST /v1/plan        optimize a workload against the latest prices
//	POST /v1/evaluate    cost-model an explicit plan
//	POST /v1/montecarlo  replay a strategy over the ingested market
//	POST /v1/prices      append spot-price ticks (array or NDJSON)
//	GET  /v1/sessions    tracked Algorithm-1 sessions (with audit log)
//	GET  /metrics        Prometheus text exposition
//	GET  /healthz        liveness + market version
//	GET  /debug/trace    recent request spans (?request_id=..., ?limit=N)
//	GET  /debug/pprof/   runtime profiles
//
// POST /v1/plan also accepts ?explain=1, returning the optimizer's
// decision trail alongside the plan.
//
// With -cluster-self/-cluster-node (requires -data-dir), the process
// runs as one node of a static cluster: market shards are owned by
// rendezvous hash, mis-routed ingest and plan requests forward to
// their owner, every peer's WAL replicates into DIR/standby/<peer>,
// and a dead peer's shards and sessions are promoted locally. Cluster
// endpoints: GET /cluster/wal (segment stream), /cluster/status,
// /cluster/healthz and /cluster/metrics (merged views).
//
// SIGINT/SIGTERM drain in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sompi/internal/cloud"
	"sompi/internal/cluster"
	"sompi/internal/obs"
	"sompi/internal/serve"
	"sompi/internal/store"
)

// nodeFlags collects repeated -cluster-node name=url entries.
type nodeFlags []cluster.Node

func (f *nodeFlags) String() string {
	parts := make([]string, len(*f))
	for i, n := range *f {
		parts[i] = n.Name + "=" + n.URL
	}
	return strings.Join(parts, ",")
}

func (f *nodeFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*f = append(*f, cluster.Node{Name: name, URL: strings.TrimSuffix(url, "/")})
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sompid: ")
	var (
		addr       = flag.String("addr", ":8377", "listen address (use :0 for an ephemeral port)")
		seed       = flag.Uint64("seed", 42, "market seed for the synthesized market")
		hours      = flag.Float64("hours", 720, "hours of synthesized price history")
		traces     = flag.String("traces", "", "load the market from this cmd/tracegen CSV directory instead of synthesizing")
		window     = flag.Float64("window", 0, "re-optimization window T_m in hours (0 = paper default)")
		history    = flag.Float64("history", 0, "default training history in hours (0 = default 96)")
		cache      = flag.Int("cache", 256, "plan cache entries")
		timeout    = flag.Duration("timeout", 60*time.Second, "per-request timeout for plan/evaluate/montecarlo")
		retain     = flag.Float64("retain", 0, "per-shard price retention in hours (0 = unbounded): a long-lived feed keeps only this much trailing history per (type, zone) shard, compacting older samples")
		logFormat  = flag.String("log-format", "text", "structured log encoding: text or ndjson")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		traceRing  = flag.Int("trace-ring", 0, "span ring capacity for /debug/trace (0 = default 4096)")
		dataDir    = flag.String("data-dir", "", "durability directory for the WAL + snapshots (empty = in-memory only)")
		fsync      = flag.Bool("fsync", true, "fsync every WAL append (with -data-dir); off trades the tail since the last sync for latency")
		ingestQ    = flag.Int("ingest-queue", 0, "tick batches that may wait on one shard behind the batch being applied; one more answers 429 (0 = default 1024)")
		reoptWork  = flag.Int("reopt-workers", 0, "session re-optimization worker pool size (0 = default 4)")
		captureLog = flag.String("capture-log", "", "capture every v1 request to a segmented NDJSON log under this directory for cmd/sompi-replay (empty = capture off)")
		captureSeg = flag.Int("capture-segment", 0, "records per capture segment before it is sealed (0 = default 4096)")

		clusterSelf     = flag.String("cluster-self", "", "this node's name in a multi-node cluster (requires -data-dir and at least two -cluster-node entries)")
		clusterProbe    = flag.Duration("cluster-probe", 0, "peer health-probe interval (0 = default 300ms)")
		clusterFailures = flag.Int("cluster-failover-after", 0, "consecutive failed probes before a peer is declared dead and its shards promoted (0 = default 5)")
	)
	var clusterNodes nodeFlags
	flag.Var(&clusterNodes, "cluster-node", "cluster member as name=url (repeatable; must include -cluster-self)")
	flag.Parse()

	format, err := obs.ParseFormat(*logFormat)
	if err != nil {
		log.Fatalf("bad -log-format: %v", err)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("bad -log-level: %v", err)
	}
	logger := obs.NewLogger(os.Stderr, level, format)

	var m *cloud.Market
	if *traces != "" {
		var err error
		m, err = cloud.LoadMarket(*traces, cloud.DefaultCatalog(), cloud.DefaultZones())
		if err != nil {
			log.Fatalf("loading market: %v", err)
		}
	} else {
		m = cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), *hours, *seed)
	}
	if *retain > 0 {
		m.SetRetention(*retain)
	}

	// With -data-dir, open the store first: serve.New replays its WAL and
	// snapshot into the market and session registry before the listener
	// exists, so the first request already sees the recovered state.
	var st *store.Store
	if *dataDir != "" {
		var err error
		st, err = store.Open(*dataDir, store.Options{Fsync: *fsync})
		if err != nil {
			log.Fatalf("opening data dir: %v", err)
		}
	}

	// Cluster mode: the standby mirrors live next to the node's own WAL,
	// one directory per peer.
	var clusterCfg *serve.ClusterConfig
	if *clusterSelf != "" || len(clusterNodes) > 0 {
		if *clusterSelf == "" || len(clusterNodes) < 2 {
			log.Fatalf("cluster mode needs -cluster-self and at least two -cluster-node entries")
		}
		if *dataDir == "" {
			log.Fatalf("cluster mode requires -data-dir (replication ships WAL segments)")
		}
		clusterCfg = &serve.ClusterConfig{
			Self:          *clusterSelf,
			Nodes:         clusterNodes,
			StandbyDir:    filepath.Join(*dataDir, "standby"),
			ProbeInterval: *clusterProbe,
			FailoverAfter: *clusterFailures,
		}
	}

	s, err := serve.New(serve.Config{
		Market:                m,
		WindowHours:           *window,
		HistoryHours:          *history,
		CacheSize:             *cache,
		RequestTimeout:        *timeout,
		TraceRing:             *traceRing,
		Logger:                logger,
		Store:                 st,
		IngestQueue:           *ingestQ,
		ReoptWorkers:          *reoptWork,
		CaptureLog:            *captureLog,
		CaptureSegmentRecords: *captureSeg,
		Cluster:               clusterCfg,
	})
	if err != nil {
		log.Fatalf("configuring service: %v", err)
	}

	// One structured line with the effective startup configuration, so
	// operators (and log pipelines) see what this process actually runs
	// with — defaults resolved, not just the flags that were set.
	logger.Info("starting",
		"addr", *addr, "seed", *seed, "hours", *hours, "traces", *traces,
		"window", *window, "history", *history, "cache", *cache,
		"timeout", timeout.String(), "retain", *retain,
		"log_format", *logFormat, "log_level", *logLevel, "trace_ring", *traceRing,
		"data_dir", *dataDir, "fsync", *fsync,
		"ingest_queue", *ingestQ, "reopt_workers", *reoptWork,
		"capture_log", *captureLog,
		"cluster_self", *clusterSelf, "cluster_nodes", len(clusterNodes),
		"market_version", m.Version(), "markets", m.NumMarkets(),
		"frontier_hours", m.MinDuration())

	// Listen before announcing so -addr :0 callers can parse a real port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	fmt.Printf("sompid: listening on http://%s (market v%d, %d markets, frontier %.1fh)\n",
		ln.Addr(), m.Version(), m.NumMarkets(), m.MinDuration())

	srv := &http.Server{Handler: s.Handler()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Printf("sompid: %v: draining\n", got)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		// Requests are drained: cut the shutdown snapshot, fsync and close
		// the active WAL segment so the next boot recovers instantly from
		// the snapshot instead of replaying the log (no-op in-memory).
		if err := s.Close(); err != nil {
			log.Fatalf("closing store: %v", err)
		}
		fmt.Println("sompid: bye")
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}
}
