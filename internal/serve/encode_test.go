package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sompi/internal/cloud"
	"sompi/internal/store"
)

// encodeState is appendSession over a whole sessionState, each spliced
// part encoded the way the server encodes it: the request once, each
// audit record by appendAudit.
func encodeState(st sessionState) ([]byte, error) {
	req, err := json.Marshal(st.Req)
	if err != nil {
		return nil, err
	}
	encode := func(recs []AuditRecord) ([]json.RawMessage, error) {
		out := make([]json.RawMessage, len(recs))
		for i := range recs {
			if out[i], err = appendAudit(nil, &recs[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	audit, err := encode(st.Audit)
	if err != nil {
		return nil, err
	}
	tail, err := encode(st.AuditTail)
	if err != nil {
		return nil, err
	}
	return appendSession(nil, &st, req, audit, tail)
}

// sameAsMarshal fails t unless got/gotErr is json.Marshal(v): the same
// bytes, or a failure exactly when json.Marshal fails.
func sameAsMarshal(t *testing.T, what string, v any, got []byte, gotErr error) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: encode error %v, json.Marshal error %v", what, gotErr, wantErr)
	case wantErr == nil && !bytes.Equal(got, want):
		t.Fatalf("%s:\nencoded:      %s\njson.Marshal: %s", what, got, want)
	}
}

// FuzzDurableEncode holds the durable encoder to encoding/json byte for
// byte (DESIGN §16 D11): for audit records and session states built from
// arbitrary strings, floats and shapes — strings that need escaping or
// are not UTF-8, floats at the format switches and beyond JSON (NaN,
// ±Inf), nil and empty groups, with and without a new plan, nil and
// empty maps, empty and full audit forms — appendAudit and appendSession
// write what json.Marshal writes, and fail exactly when it fails.
func FuzzDurableEncode(f *testing.F) {
	strs := []string{"", "m1.small", "us-east-1a", "é ü 中", "<b>&amp;</b>", "\x00\x1f\x7f\t\n", "\u2028\u2029", "\xff\xfe\xc3", `q"b\s`}
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e21, 9.999999999999999e20, 5e-324, 2.2250738585072014e-308,
		-118.99763271044957, 1.5842786961872792, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := range 24 {
		f.Add(strs[i%len(strs)], strs[(i*5+3)%len(strs)],
			floats[i%len(floats)], floats[(i*7+2)%len(floats)], floats[(i*3+5)%len(floats)],
			uint64(i*977), uint8(i*37))
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, x, y, z float64, n uint64, shape uint8) {
		plan := PlanPayload{Recovery: RecoveryPayload{Type: s1, Instances: int(n % 4096), Hours: x}}
		switch shape % 3 {
		case 1:
			plan.Groups = []GroupPayload{}
		case 2:
			plan.Groups = []GroupPayload{
				{Type: s1, Zone: s2, Instances: int(n), Bid: y, IntervalHours: z},
				{Type: s2, Zone: s1, Instances: -int(n % 97), Bid: z, IntervalHours: 1},
			}
		}
		rec := AuditRecord{
			Window: int(n), BoundaryHours: y, Trigger: s1, OldPlan: plan,
			OldPlanCost: z, NewPlanCost: x, CostDelta: y - z, Error: s2,
		}
		if shape&4 != 0 {
			newPlan := plan
			newPlan.Recovery.Hours = z
			rec.NewPlan = &newPlan
		}
		switch shape >> 3 % 3 {
		case 1:
			rec.MarketVersions = map[string]uint64{}
		case 2:
			rec.MarketVersions = map[string]uint64{s1: n, s2: n / 3, "c3.xlarge/us-east-1b": 7, "c3.xlarge.x/us-east-1a": 9}
		}
		got, err := appendAudit(nil, &rec)
		sameAsMarshal(t, "audit record", rec, got, err)

		st := sessionState{
			Seq: n, ID: s1, App: s2,
			Req:     PlanRequest{App: s2, DeadlineHours: x, Slack: y, Types: []string{s1}, StrategyParams: map[string]float64{s2: z}},
			History: x, Deadline: y, Start: z, Progress: x / 3, Elapsed: y * 2, Cost: z - x,
			Windows: int(n % 1000), Completed: shape&1 != 0, AllGroupsDead: shape&2 != 0,
			Plan: plan, PlanScale: y, TrainStart: z, TrainDur: x, Boundary: y + z,
			PlanVersion: n * 3, PlanCost: x, Reopts: -int(n % 13), Done: shape&32 != 0,
		}
		if shape&64 != 0 {
			st.AuditN = n
		}
		clean := rec
		clean.BoundaryHours, clean.OldPlanCost, clean.NewPlanCost, clean.CostDelta = 2, 3, 4, -1
		switch shape >> 6 {
		case 1:
			st.Audit = []AuditRecord{}
			st.AuditTail = []AuditRecord{rec}
		case 2:
			st.Audit = []AuditRecord{clean, rec, clean}
		case 3:
			st.Audit = []AuditRecord{clean}
			st.AuditTail = []AuditRecord{clean, clean}
		}
		got, err = encodeState(st)
		sameAsMarshal(t, "session state", st, got, err)
	})
}

// TestAuditVersionsMatchVersionVector: the version object recordAudit
// writes shard by shard is json.Marshal of the names-keyed map the log
// held before — VersionVector().Subset(keys) — for every shard, a
// restriction, an empty one and keys the market lacks.
func TestAuditVersionsMatchVersionVector(t *testing.T) {
	s, err := New(Config{Market: durableMarket()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.market.Append(cloud.MarketKey{Type: "c3.xlarge", Zone: "us-east-1b"}, []float64{0.1}); err != nil {
		t.Fatal(err)
	}
	all := s.market.Keys()
	for _, keys := range [][]cloud.MarketKey{
		nil, {}, all[3:7], {all[5], all[0]},
		{{Type: "m9.huge", Zone: "us-east-1a"}, all[1]},
	} {
		names := map[string]uint64{}
		for k, v := range s.market.VersionVector().Subset(keys) {
			names[k.String()] = v
		}
		want, _ := json.Marshal(names)
		if got := s.appendVersions(nil, keys); !bytes.Equal(got, want) {
			t.Fatalf("keys %v:\nwritten:      %s\njson.Marshal: %s", keys, got, want)
		}
	}
}

// TestRecoverLegacySnapshot recovers a data dir whose state is all in a
// snapshot written before the durable encoder existed
// (testdata/legacy_snapshot: made by the commit before it with
// newDurable, snapshotEvery 1<<20 and three tracked sessions — trackedPlan,
// trackedPlan restricted to two types, and LAMMPS-32 at 120 h — across
// ingestHours(2) ×4 with the second and third registered after the
// first, then a clean Close, so the shutdown snapshot holds everything
// and the WAL tail is empty). The recovered server serves the writing
// binary's /v1/sessions bytes, cuts a snapshot file byte-identical to
// the fixture's, and after two more windows recovers exactly again.
func TestRecoverLegacySnapshot(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "legacy_snapshot.sessions.json"))
	if err != nil {
		t.Fatal(err)
	}
	snapFile := func(dir string) []byte {
		t.Helper()
		snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if len(snaps) != 1 {
			t.Fatalf("%s holds %d snapshots, want 1", dir, len(snaps))
		}
		data, err := os.ReadFile(snaps[0])
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	fixture := filepath.Join("testdata", "legacy_snapshot")
	wantSnap := snapFile(fixture)
	dir := copyDataDir(t, fixture)
	s1, ts1 := newDurable(t, dir, store.Options{})
	if got := durableGet(t, ts1.URL+"/v1/sessions"); !bytes.Equal(got, want) {
		t.Fatalf("/v1/sessions recovered from the legacy snapshot:\n%s\nthe writing binary served:\n%s", got, want)
	}
	if err := s1.cutSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := snapFile(dir); !bytes.Equal(got, wantSnap) {
		t.Fatalf("a snapshot of the recovered state is %d bytes, unlike the fixture's %d", len(got), len(wantSnap))
	}
	if got, want := promValue(t, durableGet(t, ts1.URL+"/metrics"), "sompid_snapshot_bytes"), float64(len(wantSnap)-headerAndFrame); got != want {
		t.Fatalf("sompid_snapshot_bytes %v, want the payload's %v bytes", got, want)
	}
	ingestHours(t, ts1.URL, 2)
	ingestHours(t, ts1.URL, 2)
	s2, ts2 := newDurable(t, dir, store.Options{})
	assertRecoveredExactly(t, s1, s2, ts1.URL, ts2.URL)
}

// TestSessionListingBesideRegistrations reads /v1/sessions while
// sessions register and re-optimize. Every listing is the sessions in
// registration order, a prefix of the final one, and its bytes are
// encoding/json's for the SessionInfo values they decode to, so splicing
// the held audit records writes what re-encoding them would. Under -race
// this also checks that a listing, which copies only the slice of a
// session's records under its lock, shares no bytes a later audit
// append or a log trim writes.
func TestSessionListingBesideRegistrations(t *testing.T) {
	_, ts := newDurable(t, t.TempDir(), store.Options{})
	durablePost(t, ts.URL+"/v1/plan", trackedPlan())
	ingestHours(t, ts.URL, 2)
	done := make(chan struct{})
	var listings [][]byte
	go func() {
		defer close(done)
		for {
			select {
			case <-t.Context().Done():
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/v1/sessions")
			if err != nil {
				t.Errorf("GET /v1/sessions: %v", err)
				return
			}
			listing, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var infos []SessionInfo
			if err := json.Unmarshal(listing, &infos); resp.StatusCode != http.StatusOK || err != nil {
				t.Errorf("GET /v1/sessions: %d %s (%v)", resp.StatusCode, listing, err)
				return
			}
			listings = append(listings, listing)
			if len(infos) == 4 && infos[3].Windows > 0 {
				return
			}
		}
	}()
	for _, deadline := range []float64{50, 70, 80} {
		req := trackedPlan()
		req.DeadlineHours = deadline
		durablePost(t, ts.URL+"/v1/plan", req)
		ingestHours(t, ts.URL, 2)
	}
	<-done
	final := durableGet(t, ts.URL+"/v1/sessions")
	var want []SessionInfo
	if err := json.Unmarshal(final, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != 4 || len(want[0].Audit) == 0 {
		t.Fatalf("final listing holds %d sessions, the first with %d audit records: want 4 and some", len(want), len(want[0].Audit))
	}
	for i, listing := range append(listings, final) {
		var infos []SessionInfo
		if err := json.Unmarshal(listing, &infos); err != nil {
			t.Fatalf("listing %d does not decode: %v", i, err)
		}
		sameAsMarshal(t, fmt.Sprintf("listing %d", i), infos, listing, nil)
		for j := range infos {
			if infos[j].ID != want[j].ID {
				t.Fatalf("listing %d session %d is %s, want %s: not in registration order", i, j, infos[j].ID, want[j].ID)
			}
		}
	}
	t.Logf("%d listings read beside 3 registrations", len(listings))
}

// headerAndFrame is a snapshot file's bytes before its payload: the
// 12-byte file header and the 9-byte record frame prefix.
const headerAndFrame = 12 + 9

// TestPersistSessionAllocsIndependentOfWindows counts what a transition
// record costs rather than timing it: persistSession carrying one audit
// record allocates the same at window 2, at window 40 and with the log
// at its bound — whatever the length of the log behind it.
func TestPersistSessionAllocsIndependentOfWindows(t *testing.T) {
	s, ts := newDurable(t, t.TempDir(), store.Options{})
	req := trackedPlan()
	req.App, req.DeadlineHours = "LAMMPS-32", 120
	durablePost(t, ts.URL+"/v1/plan", req)
	ingestHours(t, ts.URL, 2)
	ingestHours(t, ts.URL, 2)
	s.mu.RLock()
	sess := s.sessions["s1"]
	s.mu.RUnlock()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	allocs := func() float64 {
		return testing.AllocsPerRun(50, func() {
			sess.auditLogged = sess.auditN - 1
			if err := s.persistSession(sess); err != nil {
				t.Fatal(err)
			}
		})
	}
	grow := func(to int) {
		for int(sess.auditN) < to {
			s.recordAudit(sess, "reoptimized", &sess.plan, sess.planCost, nil)
		}
	}
	if sess.auditN != 2 {
		t.Fatalf("precondition: audit_n %d after two windows, want 2", sess.auditN)
	}
	at2 := allocs()
	grow(40)
	at40 := allocs()
	grow(3 * maxAuditRecords)
	atBound := allocs()
	t.Logf("persistSession allocations: %v at window 2, %v at 40, %v with a full log", at2, at40, atBound)
	if at40 != at2 || atBound != at2 {
		t.Fatalf("persistSession allocates %v at window 2, %v at 40 and %v with a full log: a transition's cost grows with the log", at2, at40, atBound)
	}
}

// TestUnencodableAuditFailsLoudly: an audit record with no JSON form (a
// NaN cost) is never silently dropped. It is counted in audit_n and held
// in the log, and while the log retains it every WAL record of the
// session fails on it — counted in sompid_wal_append_errors_total, its
// tail left unlogged — and so do a snapshot cut and /v1/sessions, as
// json.Marshal of the same state fails. Once maxAuditRecords newer
// records push it out of the log, all three succeed again.
func TestUnencodableAuditFailsLoudly(t *testing.T) {
	s, ts := newDurable(t, t.TempDir(), store.Options{})
	durablePost(t, ts.URL+"/v1/plan", trackedPlan())
	ingestHours(t, ts.URL, 2)
	s.mu.RLock()
	sess := s.sessions["s1"]
	s.mu.RUnlock()
	listing := func() (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/sessions")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, strings.TrimSpace(string(body))
	}
	sess.mu.Lock()
	logged, n, errs := sess.auditLogged, sess.auditN, s.met.walAppendErrors.Load()
	s.recordAudit(sess, "reoptimized", &sess.plan, math.NaN(), nil)
	err := s.persistSession(sess)
	sess.mu.Unlock()
	if sess.auditN != n+1 {
		t.Fatalf("audit_n %d → %d after a NaN-cost record: want it counted", n, sess.auditN)
	}
	var unsupported *json.UnsupportedValueError
	if !errors.As(err, &unsupported) {
		t.Fatalf("persisting after a NaN-cost audit record: %v, want json's UnsupportedValueError", err)
	}
	if got := s.met.walAppendErrors.Load(); got != errs+1 || sess.auditLogged != logged {
		t.Fatalf("append errors %d → %d, audit logged %d → %d: want one more error and nothing marked logged", errs, got, logged, sess.auditLogged)
	}
	if err := s.cutSnapshot(); !errors.As(err, &unsupported) {
		t.Fatalf("snapshot after a NaN-cost audit record: %v, want json's UnsupportedValueError", err)
	}
	if code, body := listing(); code != http.StatusInternalServerError || body != `{"error":"encoding response"}` {
		t.Fatalf("/v1/sessions holding a NaN-cost audit record: %d %s, want writeJSON's encoding failure", code, body)
	}

	sess.mu.Lock()
	for range maxAuditRecords {
		s.recordAudit(sess, "reoptimized", &sess.plan, sess.planCost, nil)
	}
	err = s.persistSession(sess)
	sess.mu.Unlock()
	if err != nil {
		t.Fatalf("persisting once the NaN-cost record left the log: %v", err)
	}
	if err := s.cutSnapshot(); err != nil {
		t.Fatalf("snapshot once the NaN-cost record left the log: %v", err)
	}
	if code, body := listing(); code != http.StatusOK {
		t.Fatalf("/v1/sessions once the NaN-cost record left the log: %d %s", code, body)
	}
}
