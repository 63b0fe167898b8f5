# SOMPI build and verification targets. `make check` is the full gate:
# it must pass before every commit.

GO ?= go

.PHONY: all build vet test race serve-smoke tournament-smoke tournament-golden replay-smoke cluster-smoke fuzz check

all: check

build:
	$(GO) build ./...

# bench/ (the performance ledger, see BENCHMARK.json) is a nested module
# outside ./..., so it is vetted — and in `check` tested — by name.
# gofmt walks directories, not modules, so one call covers both; any
# file it lists fails the target.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { echo "gofmt -l:"; echo "$$unformatted"; exit 1; }

test:
	$(GO) test ./...

# The Group caches, the reuse cache, the serve path and the Monte Carlo
# replay pool are exercised under the race detector; this is the
# concurrency-soundness gate.
race:
	$(GO) test -race ./...

# The process-level smokes are stages of one command, cmd/smoke, which
# builds sompid and sompi-replay once per run and drives them through
# internal/harness.
SMOKE = $(GO) run ./cmd/smoke

# Boot a real sompid process, ingest a tick, request a plan over HTTP and
# byte-diff it against the library-path optimizer, then SIGTERM for the
# graceful-shutdown check — plus the crash stage: SIGKILL a -data-dir
# sompid mid-session and assert the restart recovers it exactly.
serve-smoke:
	$(SMOKE) serve

# Tiny fixed tournament grid (every strategy x every scenario, seconds
# scale), then verify the ranking-report JSON schema and that the "sompi"
# strategy's plan is byte-identical to the library optimizer path.
tournament-smoke:
	$(GO) run ./cmd/sompi tournament -smoke > /dev/null

# Regenerate the full tournament report (~6 s) and byte-compare it with
# the committed TOURNAMENT.md: a change that moves any plan, cost or
# ranking in it fails here until the file is regenerated on purpose.
tournament-golden:
	out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/sompi tournament > "$$out" && cmp "$$out" TOURNAMENT.md

# Capture/replay end-to-end gate: boot sompid -capture-log and drive
# mixed traffic, SIGTERM-seal the log, twin-diff the replay against an
# in-memory and a -data-dir sompid (zero plan-byte diffs, rules file
# passes), prove a violated rules file exits with the rules code, and
# run the full-speed sustained-load replay (QPS and p99 in the report).
replay-smoke:
	$(SMOKE) replay

# 2-node cluster failover gate: boot nodes a+b plus a single-node
# reference, twin-diff a mixed capture through sompi-replay (zero
# plan-byte diffs between the cluster and the single node), SIGKILL b
# mid-session, and require a to promote b's shards and sessions and
# serve byte-identical plans, with sane merged /cluster views.
cluster-smoke:
	$(SMOKE) cluster

# Short-budget fuzz pass over every fuzz target in the tree. The WAL
# record and capture-log decoders must return typed errors, never panic,
# on arbitrary torn/corrupt input; the /v1/prices tick-stream parser
# must answer any body with a JSON envelope and apply exactly the ticks
# it reports; /metrics label escaping must round-trip any string; the
# cluster's shipping-frame codec must fail typed on any byte stream and
# re-encode every frame it decodes to the exact bytes it consumed; a
# session record of any bytes folds onto a held session state into a
# typed error or a well-formed state; the durable session encoder writes
# exactly json.Marshal's bytes for any audit record or session state, and
# fails exactly when it fails; model.Prepare's O(T) walk matches the
# sort-based reference to the bit on any group Plan.Validate admits; the
# on-demand PrefixStack prices every leaf of any push/leaf/pop sequence
# to the eager stack's (cost, within) bits; the one-pass /v1/prices
# scanner applies exactly the ticks, and fails with exactly the error
# text, of encoding/json on any body read whole, a byte at a time or in
# halves; the lower hull of 1–3 groups' bid combinations of (spot cost,
# E[Ratio]) holds the cheapest combination and bounds every
# combination's leaf-bound term from below; and the pruned search
# returns the exhaustive search's plan, with each leaf counted once, on
# tiny adversarial markets with tied spot costs; and model.Evaluate
# matches the brute-force enumerator on any plan of 1–3 groups that
# Plan.Validate admits; and any JSON object sent to /v1/plan with no
# strategy and with "sompi" gets the same status and error text or the
# same plan bytes, and every plan is the library path's.
# (go test -fuzz takes one target per invocation; fifteen targets.)
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/store -run '^$$' -fuzz 'FuzzDecodeRecord' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz 'FuzzDecodeTick' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/harness -run '^$$' -fuzz 'FuzzDecodeCaptureRecord' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzIngestPrices' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzEscapeLabel' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz 'FuzzReadFrame' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzSessionFold' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzDurableEncode' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/model -run '^$$' -fuzz 'FuzzPrepare' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/model -run '^$$' -fuzz 'FuzzPrefixStack' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/model -run '^$$' -fuzz 'FuzzEvaluateMatchesBrute' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/opt -run '^$$' -fuzz 'FuzzLowerHull' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/opt -run '^$$' -fuzz 'FuzzOptimizeMatchesExhaustive' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzScanTicks' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzPlanSpellings' -fuzztime $(FUZZTIME)

# Same gates as running serve-smoke, tournament-smoke, tournament-golden,
# replay-smoke and cluster-smoke one by one; the three process smokes
# share one cmd/smoke run so the binaries build once.
check: build vet race tournament-smoke tournament-golden
	$(GO) test -C bench ./...
	$(SMOKE) serve replay cluster
