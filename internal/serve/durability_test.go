package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"testing"

	"sompi/internal/cloud"
	"sompi/internal/store"
)

// durableMarket regenerates the deterministic test market: recovery
// replays the WAL over a fresh generation of it, exactly as a restarted
// sompid regenerates (or reloads) its market before recovering.
func durableMarket() *cloud.Market {
	return cloud.GenerateMarket(cloud.DefaultCatalog(), cloud.DefaultZones(), 240, 7)
}

// newDurable builds a durable server over dir and a test HTTP front.
func newDurable(t *testing.T, dir string, opts store.Options) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	s, err := New(Config{Market: durableMarket(), WindowHours: 2, Store: st})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func durablePost(t *testing.T, url string, v any) []byte {
	t.Helper()
	body, _ := json.Marshal(v)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, out)
	}
	return out
}

func durableGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, out)
	}
	return out
}

func promValue(t *testing.T, metrics []byte, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`)
	m := re.FindSubmatch(metrics)
	if m == nil {
		t.Fatalf("metric %s not found", name)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

// trackedPlan is the deterministic tracked request the recovery tests
// drive. workers is inert; it stays 1 as in the requests the legacy
// fixtures recorded.
func trackedPlan() PlanRequest {
	return PlanRequest{
		App: "BT", DeadlineHours: 60,
		Workers: 1, Kappa: 2, GridLevels: 3, MaxGroups: 3,
		Track: true,
	}
}

// ingestHours advances every market by the given hours of flat prices —
// below every plausible bid, so tracked sessions survive their windows.
func ingestHours(t *testing.T, url string, hours float64) {
	t.Helper()
	ingestZone(t, url, "", hours, 0.05)
}

// ingestZone feeds hours of one flat price to every shard of zone (""
// = every zone). ?sync=1: the durability tests assert
// post-re-optimization state (audit records, WAL session transitions),
// so it drains the scheduler before returning.
func ingestZone(t *testing.T, url, zone string, hours, price float64) {
	t.Helper()
	samples := make([]float64, int(hours*12))
	for i := range samples {
		samples[i] = price
	}
	var ticks []PriceTick
	for _, key := range durableMarket().Keys() {
		if zone == "" || key.Zone == zone {
			ticks = append(ticks, PriceTick{Type: key.Type, Zone: key.Zone, Prices: samples})
		}
	}
	durablePost(t, url+"/v1/prices?sync=1", ticks)
}

// assertRecoveredExactly is the tentpole's exactness proof: version
// vector, retained prices, session listing bytes and every live
// session's plan bytes identical between the pre-crash server and the
// recovered one.
func assertRecoveredExactly(t *testing.T, s1, s2 *Server, url1, url2 string) {
	t.Helper()
	if vv1, vv2 := s1.market.VersionVector(), s2.market.VersionVector(); !reflect.DeepEqual(vv1, vv2) {
		t.Fatalf("version vector diverged:\npre:  %v\npost: %v", vv1, vv2)
	}
	if v1, v2 := s1.market.Version(), s2.market.Version(); v1 != v2 {
		t.Fatalf("composite version %d != %d", v1, v2)
	}
	for _, k := range s1.market.Keys() {
		tr1, tr2 := s1.market.Trace(k.Type, k.Zone), s2.market.Trace(k.Type, k.Zone)
		if tr1.Step != tr2.Step || tr1.Head != tr2.Head || !reflect.DeepEqual(tr1.Prices, tr2.Prices) {
			t.Fatalf("retained prices diverged for %v: %d/%d samples, head %d/%d",
				k, tr1.Len(), tr2.Len(), tr1.Head, tr2.Head)
		}
	}

	sessions1 := durableGet(t, url1+"/v1/sessions")
	sessions2 := durableGet(t, url2+"/v1/sessions")
	if !bytes.Equal(sessions1, sessions2) {
		t.Fatalf("/v1/sessions diverged:\npre:  %s\npost: %s", sessions1, sessions2)
	}
	health1 := durableGet(t, url1+"/healthz")
	health2 := durableGet(t, url2+"/healthz")
	if !bytes.Equal(health1, health2) {
		t.Fatalf("/healthz diverged:\npre:  %s\npost: %s", health1, health2)
	}

	s1.mu.RLock()
	defer s1.mu.RUnlock()
	s2.mu.RLock()
	defer s2.mu.RUnlock()
	if len(s1.sessions) == 0 || len(s1.sessions) != len(s2.sessions) {
		t.Fatalf("session registry size %d vs %d", len(s1.sessions), len(s2.sessions))
	}
	for id, t1 := range s1.sessions {
		t2, ok := s2.sessions[id]
		if !ok {
			t.Fatalf("session %s missing after recovery", id)
		}
		p1, _ := json.Marshal(EncodePlan(t1.plan))
		p2, _ := json.Marshal(EncodePlan(t2.plan))
		if !bytes.Equal(p1, p2) {
			t.Fatalf("session %s plan diverged:\npre:  %s\npost: %s", id, p1, p2)
		}
		if t1.boundary != t2.boundary || t1.planVersion != t2.planVersion ||
			t1.planCost != t2.planCost || t1.done != t2.done || t1.seq != t2.seq || t1.auditN != t2.auditN {
			t.Fatalf("session %s state diverged: boundary %v/%v version %d/%d cost %v/%v done %v/%v seq %d/%d audit_n %d/%d",
				id, t1.boundary, t2.boundary, t1.planVersion, t2.planVersion,
				t1.planCost, t2.planCost, t1.done, t2.done, t1.seq, t2.seq, t1.auditN, t2.auditN)
		}
	}
	if s1.nextID != s2.nextID {
		t.Fatalf("nextID %d != %d: recovered server would reuse session ids", s1.nextID, s2.nextID)
	}
}

// TestCrashRecoveryExactness kills the server mid-stream — no Close, no
// shutdown snapshot, exactly what SIGKILL leaves behind — and proves
// the WAL alone restores the full state byte-identically.
func TestCrashRecoveryExactness(t *testing.T) {
	dir := t.TempDir()
	// The test appends far less than a segment, so no cut is due:
	// recovery must work from pure WAL replay.
	s1, ts1 := newDurable(t, dir, store.Options{})

	durablePost(t, ts1.URL+"/v1/plan", trackedPlan())
	ingestHours(t, ts1.URL, 2) // crosses the first window boundary: re-optimization
	ingestHours(t, ts1.URL, 1) // more ticks after the last session transition

	var sessions []SessionInfo
	json.Unmarshal(durableGet(t, ts1.URL+"/v1/sessions"), &sessions)
	if len(sessions) != 1 || sessions[0].Reoptimized < 1 {
		t.Fatalf("precondition: session did not re-optimize: %+v", sessions)
	}

	// "SIGKILL": the server and its store are simply abandoned.
	s2, ts2 := newDurable(t, dir, store.Options{})
	assertRecoveredExactly(t, s1, s2, ts1.URL, ts2.URL)

	// The recovered server is live, not read-only: further ingestion
	// advances sessions from exactly where the crash left them.
	ingestHours(t, ts2.URL, 2)
	var after []SessionInfo
	json.Unmarshal(durableGet(t, ts2.URL+"/v1/sessions"), &after)
	if after[0].Windows <= sessions[0].Windows {
		t.Fatalf("recovered session did not keep advancing: %+v", after[0])
	}
}

// TestCrashRecoveryWithSnapshots is the same proof through the other
// path: snapshots cut during operation, covered segments compacted,
// recovery = snapshot + tail replay.
func TestCrashRecoveryWithSnapshots(t *testing.T) {
	dir := t.TempDir()
	// One-KiB segments: the first cut is due once a KiB of WAL is in.
	opts := store.Options{SegmentBytes: 1 << 10}
	s1, ts1 := newDurable(t, dir, opts)

	durablePost(t, ts1.URL+"/v1/plan", trackedPlan())
	ingestHours(t, ts1.URL, 2)
	ingestHours(t, ts1.URL, 1)
	// Snapshot cuts run on a background goroutine; drain before probing
	// stats (the Add happens before the ingest response is written, so
	// the Wait reliably covers every cut these requests armed).
	s1.snapWG.Wait()
	if s1.store.Stats().Snapshots == 0 {
		t.Fatal("precondition: no snapshot was cut")
	}
	// Records appended after the last snapshot force mixed recovery.
	ingestHours(t, ts1.URL, 0.5)
	// Quiesce the abandoned server's background cut before a second
	// store opens the same directory.
	s1.snapWG.Wait()

	s2, ts2 := newDurable(t, dir, opts)
	if s2.store.Stats().SnapshotSeq == 0 {
		t.Fatal("recovery did not start from a snapshot")
	}
	assertRecoveredExactly(t, s1, s2, ts1.URL, ts2.URL)
}

// TestTerminalSessionsSurviveRestart drives one session to each terminal
// transition through /v1/prices?sync=1 — "completed" on cheap prices,
// "recovered_on_demand" when every candidate shard prices above every
// bid — and then restarts the durable server: the terminal listing
// entries and the session gauges come back unchanged.
func TestTerminalSessionsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newDurable(t, dir, store.Options{})

	// Disjoint zones: each session's boundary clock follows only its own
	// shards, so each feed moves exactly one of them.
	cheap, spiked := trackedPlan(), trackedPlan()
	cheap.Zones, spiked.Zones = []string{cloud.ZoneA}, []string{cloud.ZoneB}
	durablePost(t, ts1.URL+"/v1/plan", cheap)
	durablePost(t, ts1.URL+"/v1/plan", spiked)

	ingestZone(t, ts1.URL, cloud.ZoneA, cheap.DeadlineHours, 0.05)
	ingestZone(t, ts1.URL, cloud.ZoneB, 2, 1e3)

	sessions := durableGet(t, ts1.URL+"/v1/sessions")
	var infos []SessionInfo
	if err := json.Unmarshal(sessions, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("%d sessions listed, want 2", len(infos))
	}
	for i, want := range []string{"completed", "recovered_on_demand"} {
		got := infos[i]
		if !got.Done || !got.Completed || len(got.Audit) == 0 {
			t.Fatalf("session %s: done %v completed %v with %d audit records, want a terminal run",
				got.ID, got.Done, got.Completed, len(got.Audit))
		}
		if trig := got.Audit[len(got.Audit)-1].Trigger; trig != want {
			t.Fatalf("session %s: last trigger %q, want %q", got.ID, trig, want)
		}
	}
	metrics := durableGet(t, ts1.URL+"/metrics")
	active := promValue(t, metrics, "sompid_active_sessions")
	completed := promValue(t, metrics, "sompid_sessions_completed_total")
	if active != 0 || completed != 2 {
		t.Fatalf("gauges: %v active, %v completed, want 0 and 2", active, completed)
	}

	_, ts2 := newDurable(t, dir, store.Options{})
	if got := durableGet(t, ts2.URL+"/v1/sessions"); !bytes.Equal(got, sessions) {
		t.Fatalf("terminal sessions diverged after restart:\npre:  %s\npost: %s", sessions, got)
	}
	metrics = durableGet(t, ts2.URL+"/metrics")
	if a, c := promValue(t, metrics, "sompid_active_sessions"), promValue(t, metrics, "sompid_sessions_completed_total"); a != active || c != completed {
		t.Fatalf("gauges after restart: %v active, %v completed, want %v and %v", a, c, active, completed)
	}
}

// TestDurableTwinMatchesInMemory: with no store the service must behave
// exactly as before durability existed, and with a store the served
// bytes must not change — the same requests against a durable server
// and a pure in-memory twin produce identical plans and sessions.
func TestDurableTwinMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	_, durableTS := newDurable(t, dir, store.Options{})
	mem, err := New(Config{Market: durableMarket(), WindowHours: 2})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	memTS := httptest.NewServer(mem.Handler())
	defer memTS.Close()

	p1 := durablePost(t, durableTS.URL+"/v1/plan", trackedPlan())
	p2 := durablePost(t, memTS.URL+"/v1/plan", trackedPlan())
	if !bytes.Equal(p1, p2) {
		t.Fatalf("plan bytes diverged with a store:\ndurable: %s\nmemory:  %s", p1, p2)
	}
	ingestHours(t, durableTS.URL, 2)
	ingestHours(t, memTS.URL, 2)
	sd := durableGet(t, durableTS.URL+"/v1/sessions")
	sm := durableGet(t, memTS.URL+"/v1/sessions")
	if !bytes.Equal(sd, sm) {
		t.Fatalf("sessions diverged with a store:\ndurable: %s\nmemory:  %s", sd, sm)
	}
}

// TestCloseFlushesWAL is the graceful-shutdown regression: Close must
// cut a final snapshot, fsync and close the active segment, and leave a
// store a fresh process recovers completely — even when per-append
// fsync is off.
func TestCloseFlushesWAL(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurable(t, dir, store.Options{Fsync: false})
	durablePost(t, ts1.URL+"/v1/plan", trackedPlan())
	ingestHours(t, ts1.URL, 2)

	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
	// The WAL is closed: nothing can append past shutdown.
	if err := s1.store.Append(store.Record{Type: store.RecordTick}); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("append after Close: got %v, want ErrClosed", err)
	}
	// Close cut a clean shutdown snapshot.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) == 0 {
		t.Fatal("Close left no snapshot")
	}

	s2, ts2 := newDurable(t, dir, store.Options{Fsync: false})
	assertRecoveredExactly(t, s1, s2, ts1.URL, ts2.URL)
}

// TestWALMetricsAndRecoverySpan covers the observability satellite: the
// durability families carry real values on a durable server, recovery
// publishes its duration, and the recovery span lands in /debug/trace.
func TestWALMetricsAndRecoverySpan(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newDurable(t, dir, store.Options{Fsync: true})
	durablePost(t, ts1.URL+"/v1/prices", []PriceTick{{Type: "m1.medium", Zone: "us-east-1a", Prices: []float64{0.05}}})

	mx := durableGet(t, ts1.URL+"/metrics")
	if v := promValue(t, mx, "sompid_wal_appended_records_total"); v < 1 {
		t.Fatalf("sompid_wal_appended_records_total = %v, want >= 1", v)
	}
	if v := promValue(t, mx, "sompid_wal_fsync_seconds_count"); v < 1 {
		t.Fatalf("sompid_wal_fsync_seconds_count = %v, want >= 1 with Fsync on", v)
	}
	if v := promValue(t, mx, "sompid_wal_active_segment"); v < 1 {
		t.Fatalf("sompid_wal_active_segment = %v, want >= 1", v)
	}

	// Restart: recovery replays the tick and publishes its duration.
	s2, ts2 := newDurable(t, dir, store.Options{Fsync: true})
	mx = durableGet(t, ts2.URL+"/metrics")
	if v := promValue(t, mx, "sompid_recovery_seconds"); v <= 0 {
		t.Fatalf("sompid_recovery_seconds = %v, want > 0 after a recovery", v)
	}
	found := false
	for _, sp := range s2.col.Spans("", 0) {
		if sp.Name == "store.recover" {
			found = true
		}
	}
	if !found {
		t.Fatal("no store.recover span in the flight recorder after recovery")
	}

	// A pure in-memory server still renders the families, as zeros.
	mem, err := New(Config{Market: durableMarket()})
	if err != nil {
		t.Fatal(err)
	}
	memTS := httptest.NewServer(mem.Handler())
	defer memTS.Close()
	mx = durableGet(t, memTS.URL+"/metrics")
	if v := promValue(t, mx, "sompid_wal_appended_records_total"); v != 0 {
		t.Fatalf("in-memory server reports %v appended WAL records", v)
	}
	if v := promValue(t, mx, "sompid_recovery_seconds"); v != 0 {
		t.Fatalf("in-memory server reports recovery_seconds %v", v)
	}
}

// TestRecoveryRejectsCorruptMiddle: corruption that torn-tail handling
// cannot explain must keep the server from starting at all.
func TestRecoveryFailsClosedOnCorruptStore(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurable(t, dir, store.Options{})
	durablePost(t, ts1.URL+"/v1/plan", trackedPlan())
	ingestHours(t, ts1.URL, 2)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) == 0 {
		t.Fatal("no snapshot on disk")
	}
	corruptFile(t, snaps[len(snaps)-1])

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	if _, err := New(Config{Market: durableMarket(), WindowHours: 2, Store: st}); !errors.Is(err, store.ErrCorruptSnapshot) {
		t.Fatalf("New over a corrupt snapshot: got %v, want ErrCorruptSnapshot", err)
	}
}

// TestRecoverSessionAcceptedBeforeSchemaCheck: a data dir written before
// requests without a strategy were checked against the sompi schema may
// hold a session with a knob that schema refuses (workers 300 was a 200
// then). Recovery rebuilds it on the knobs it was accepted with instead
// of refusing the whole data dir.
func TestRecoverSessionAcceptedBeforeSchemaCheck(t *testing.T) {
	s, ts := newDurable(t, t.TempDir(), store.Options{})
	durablePost(t, ts.URL+"/v1/plan", trackedPlan())
	s.mu.Lock()
	tr := s.sessions[s.order[0]]
	s.mu.Unlock()
	tr.mu.Lock()
	st := tr.state()
	tr.mu.Unlock()
	st.Req.Workers = 300
	got, err := s.materializeSession(st)
	if err != nil {
		t.Fatalf("rebuilding a session recorded with workers 300: %v", err)
	}
	if got.strat != nil || got.base.Kappa != tr.base.Kappa || got.base.GridLevels != tr.base.GridLevels ||
		got.base.MaxGroups != tr.base.MaxGroups || got.base.Deadline != tr.base.Deadline {
		t.Fatalf("rebuilt base %+v, registered %+v", got.base, tr.base)
	}
}

// TestRegistrationFailClosed: a tracked plan whose registration record
// cannot reach the WAL must not hand out a session id — the client
// would otherwise hold an id that a restart silently forgets. The
// failure also surfaces as a degraded /healthz, not just a counter.
func TestRegistrationFailClosed(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurable(t, dir, store.Options{})
	// Close the store out from under the server: every append now fails.
	if err := s.store.Close(); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(trackedPlan())
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("tracked plan with a dead WAL: %d %s, want 500", resp.StatusCode, out)
	}

	var sessions []SessionInfo
	json.Unmarshal(durableGet(t, ts.URL+"/v1/sessions"), &sessions)
	if len(sessions) != 0 {
		t.Fatalf("session registered despite failed persistence: %+v", sessions)
	}
	mx := durableGet(t, ts.URL+"/metrics")
	if v := promValue(t, mx, "sompid_wal_append_errors_total"); v < 1 {
		t.Fatalf("sompid_wal_append_errors_total = %v, want >= 1", v)
	}
	var hz HealthResponse
	json.Unmarshal(durableGet(t, ts.URL+"/healthz"), &hz)
	if hz.Status != "degraded" || hz.WALAppendErrors < 1 {
		t.Fatalf("healthz after WAL failure: status %q wal_append_errors %d, want degraded/>=1", hz.Status, hz.WALAppendErrors)
	}

	// An untracked plan still serves: the WAL is not on its path.
	untracked := trackedPlan()
	untracked.Track = false
	durablePost(t, ts.URL+"/v1/plan", untracked)
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCutSnapshotAllocsIndependentOfSessions counts what a snapshot cut
// allocates rather than timing it (DESIGN §16 D12): the cut streams each
// session through one reused buffer, so quadrupling the sessions section
// adds a small per-session cost (72 bytes on go1.24), not the section's
// bytes (about 55 KB a session here), which a cut building the payload
// whole allocates.
func TestCutSnapshotAllocsIndependentOfSessions(t *testing.T) {
	if raceEnabled {
		t.Skip("counts allocations, which -race makes random: sync.Pool then drops a quarter of what it is given")
	}
	s, ts := newDurable(t, t.TempDir(), store.Options{})
	register := func(n int) {
		for range n {
			durablePost(t, ts.URL+"/v1/plan", trackedPlan())
		}
		s.mu.RLock()
		defer s.mu.RUnlock()
		for _, sess := range s.sessions {
			sess.mu.Lock()
			for sess.auditN < 64 {
				s.recordAudit(sess, "reoptimized", &sess.plan, sess.planCost, nil)
			}
			sess.mu.Unlock()
		}
	}
	// cut reports the fewest bytes one of five cuts allocated, and the
	// payload it wrote. No GC is forced between them: a GC empties
	// encoding/json's buffer pool, and refilling it costs a cut a
	// shard's worth of bytes no matter how many sessions there are.
	cut := func() (alloc uint64, payload int64) {
		alloc = math.MaxUint64
		for range 5 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := s.cutSnapshot(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			alloc = min(alloc, m1.TotalAlloc-m0.TotalAlloc)
		}
		return alloc, s.store.Stats().SnapshotBytes
	}
	const n = 8
	register(n)
	allocN, sizeN := cut()
	register(3 * n)
	alloc4N, size4N := cut()
	section := size4N - sizeN
	grew := int64(alloc4N) - int64(allocN)
	t.Logf("cut of %d sessions: %d bytes written, %d allocated; of %d: %d written, %d allocated; %d more section bytes, %d more allocated",
		n, sizeN, allocN, 4*n, size4N, alloc4N, section, grew)
	if section < 3*n*16<<10 {
		t.Fatalf("precondition: the sessions section grew by %d bytes, want sessions of at least 16 KiB", section)
	}
	if grew > 3*n*1<<10 {
		t.Fatalf("a cut of %d sessions allocates %d bytes more than one of %d: over 1 KiB per added session, for %d more section bytes",
			4*n, grew, n, section)
	}
}
