package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sompi/internal/store"
)

// auditRun is n synthetic audit records numbered from, by ever-index:
// Window carries the index, so a folded log reads back by position.
func auditRun(from, n int) []AuditRecord {
	out := make([]AuditRecord, n)
	for i := range out {
		out[i] = AuditRecord{Window: from + i, Trigger: "reoptimized"}
	}
	return out
}

// windowsOf lists a log's ever-indices.
func windowsOf(audit []AuditRecord) []int {
	out := make([]int, len(audit))
	for i, r := range audit {
		out[i] = r.Window
	}
	return out
}

// span is the ever-indices [from, to).
func span(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// tailRecord is the WAL form of record seq: audit records
// [auditN−tail, auditN) in the tail.
func tailRecord(seq uint64, auditN, tail int) sessionState {
	return sessionState{Seq: seq, ID: "s1", AuditN: uint64(auditN), AuditTail: auditRun(auditN-tail, tail)}
}

// heldState is a folded state at seq holding the newest retained records
// of auditN.
func heldState(seq uint64, auditN int) sessionState {
	kept := min(auditN, maxAuditRecords)
	return sessionState{Seq: seq, ID: "s1", AuditN: uint64(auditN), Audit: auditRun(auditN-kept, kept)}
}

// TestSessionFold pins DESIGN §16 D9's rule case by case: every record
// form the WAL and snapshots can hold folds onto the state held before
// it into the log the session had in memory, and every malformed tail is
// the typed error with the held state untouched.
func TestSessionFold(t *testing.T) {
	for _, tc := range []struct {
		name    string
		held    sessionState
		rec     sessionState
		wantN   uint64
		wantLog []int
		wantSeq uint64
	}{
		{"registration on nothing", sessionState{}, sessionState{Seq: 1, ID: "s1"}, 0, []int{}, 1},
		{"one new record", heldState(3, 2), tailRecord(4, 3, 1), 3, span(0, 3), 4},
		{"replayed record is skipped", heldState(4, 3), tailRecord(4, 3, 1), 3, span(0, 3), 4},
		{"older record is skipped, however malformed", heldState(9, 3), sessionState{Seq: 2, ID: "s1", AuditN: 1, AuditTail: auditRun(0, 5)}, 3, span(0, 3), 9},
		{"overlap: the re-log after a restart", heldState(5, 5), tailRecord(6, 6, 6), 6, span(0, 6), 6},
		{"overlap: a failed append reached the log after all", heldState(5, 5), tailRecord(6, 6, 2), 6, span(0, 6), 6},
		{"re-carry: a failed append's record rides the next", heldState(3, 3), tailRecord(5, 5, 2), 5, span(0, 5), 5},
		{"trim at 256", heldState(300, 256), tailRecord(301, 258, 2), 258, span(2, 258), 301},
		{"trim a long-lived log", heldState(400, 399), tailRecord(401, 400, 1), 400, span(144, 400), 401},
		{"gap bridged by a whole retained log", heldState(3, 10), tailRecord(40, 400, 256), 400, span(144, 400), 40},
		{"adoption re-log onto nothing", sessionState{}, tailRecord(7, 6, 6), 6, span(0, 6), 7},
		{"adoption re-log of a trimmed log onto nothing", sessionState{}, tailRecord(500, 300, 256), 300, span(44, 300), 500},
		{"legacy full record", heldState(2, 1), sessionState{Seq: 5, ID: "s1", Audit: auditRun(0, 4)}, 4, span(0, 4), 5},
		{"legacy full record with no audit", heldState(2, 1), sessionState{Seq: 3, ID: "s1"}, 0, []int{}, 3},
		{"snapshot full record", heldState(2, 1), sessionState{Seq: 8, ID: "s1", AuditN: 300, Audit: auditRun(44, 256)}, 300, span(44, 300), 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.held
			if err := st.fold(tc.rec); err != nil {
				t.Fatalf("fold: %v", err)
			}
			if st.Seq != tc.wantSeq || st.AuditN != tc.wantN || !slices.Equal(windowsOf(st.Audit), tc.wantLog) || st.AuditTail != nil {
				t.Fatalf("folded to seq %d audit_n %d log %v tail %d, want seq %d audit_n %d log %v",
					st.Seq, st.AuditN, windowsOf(st.Audit), len(st.AuditTail), tc.wantSeq, tc.wantN, tc.wantLog)
			}
		})
	}

	t.Run("a legacy run folds to its last record, then tails continue it", func(t *testing.T) {
		var st sessionState
		for seq := 1; seq <= 4; seq++ {
			if err := st.fold(sessionState{Seq: uint64(seq), ID: "s1", Audit: auditRun(0, seq-1)}); err != nil {
				t.Fatal(err)
			}
		}
		for seq := 5; seq <= 6; seq++ {
			if err := st.fold(tailRecord(uint64(seq), seq-1, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if st.AuditN != 5 || !slices.Equal(windowsOf(st.Audit), span(0, 5)) {
			t.Fatalf("audit_n %d log %v, want 5 and [0,5)", st.AuditN, windowsOf(st.Audit))
		}
	})

	t.Run("the held log's array is never written", func(t *testing.T) {
		backing := make([]AuditRecord, 3, 8)
		copy(backing, auditRun(0, 3))
		st := sessionState{Seq: 3, ID: "s1", AuditN: 3, Audit: backing}
		if err := st.fold(tailRecord(4, 4, 1)); err != nil {
			t.Fatal(err)
		}
		if spare := backing[:4][3]; !reflect.DeepEqual(spare, AuditRecord{}) {
			t.Fatalf("fold appended into the held log's spare capacity: %+v", spare)
		}
	})

	for _, tc := range []struct {
		name string
		held sessionState
		rec  sessionState
	}{
		{"tail longer than its count", heldState(3, 2), sessionState{Seq: 4, ID: "s1", AuditN: 2, AuditTail: auditRun(0, 3)}},
		{"tail with no count", heldState(3, 2), sessionState{Seq: 4, ID: "s1", AuditTail: auditRun(0, 1)}},
		{"tail longer than the retained log", heldState(3, 2), tailRecord(4, 400, 257)},
		{"tail beside a full log", heldState(3, 2), sessionState{Seq: 4, ID: "s1", AuditN: 3, Audit: auditRun(0, 3), AuditTail: auditRun(2, 1)}},
		{"gap after the held log", heldState(3, 2), tailRecord(4, 5, 1)},
		{"gap from nothing", sessionState{}, tailRecord(4, 5, 3)},
		{"gap bridged by 255 records", heldState(3, 10), tailRecord(40, 400, 255)},
		{"empty tail past the held log", heldState(3, 2), tailRecord(4, 3, 0)},
		{"count going backwards", heldState(3, 5), tailRecord(4, 4, 1)},
		{"full log shorter than its count", heldState(3, 2), sessionState{Seq: 4, ID: "s1", AuditN: 10, Audit: auditRun(5, 5)}},
		{"legacy log beyond the bound", heldState(3, 2), sessionState{Seq: 4, ID: "s1", Audit: auditRun(0, 257)}},
	} {
		t.Run("malformed: "+tc.name, func(t *testing.T) {
			st := tc.held
			before := tc.held
			before.Audit = slices.Clone(tc.held.Audit)
			err := st.fold(tc.rec)
			if !errors.Is(err, errCorruptSessionRecord) {
				t.Fatalf("fold: %v, want errCorruptSessionRecord", err)
			}
			if !reflect.DeepEqual(st, before) {
				t.Fatalf("a failed fold moved the held state:\n%+v\nwant\n%+v", st, before)
			}
		})
	}
}

// FuzzSessionFold feeds arbitrary bytes to the session-record decoder
// and folds whatever decodes onto a seeded long-lived state. Every
// outcome is a typed error that leaves the held state untouched, or a
// well-formed state: at most maxAuditRecords audit records, exactly
// min(AuditN, maxAuditRecords) of them, no tail left over, never a
// panic.
func FuzzSessionFold(f *testing.F) {
	seedState := func() sessionState { return heldState(300, 300) }
	for _, rec := range []sessionState{
		tailRecord(301, 301, 1),
		tailRecord(301, 301, 256),
		tailRecord(301, 600, 256),
		tailRecord(301, 302, 1),
		{Seq: 301, ID: "s1", Audit: auditRun(0, 3)},
		{Seq: 301, ID: "s1", AuditN: 400, Audit: auditRun(144, 256)},
		tailRecord(12, 2, 2),
	} {
		b, _ := json.Marshal(rec)
		f.Add(b)
	}
	for _, s := range []string{`{}`, `null`, `{"seq":301,"audit_n":3}`, `{"seq":301,"audit_tail":[{}]}`, `[`, "\x00"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeSessionRecord(payload)
		if err != nil {
			if !errors.Is(err, errCorruptSessionRecord) {
				t.Fatalf("decode: untyped error %v", err)
			}
			return
		}
		st := seedState()
		if err := st.fold(rec); err != nil {
			if !errors.Is(err, errCorruptSessionRecord) {
				t.Fatalf("fold: untyped error %v", err)
			}
			if !reflect.DeepEqual(st, seedState()) {
				t.Fatalf("a failed fold moved the held state")
			}
			return
		}
		if len(st.Audit) > maxAuditRecords || uint64(len(st.Audit)) != min(st.AuditN, maxAuditRecords) || st.AuditTail != nil {
			t.Fatalf("ill-formed fold: %d audit records for audit_n %d, %d tail records left", len(st.Audit), st.AuditN, len(st.AuditTail))
		}
		if st.Seq < 300 {
			t.Fatalf("fold moved seq back to %d", st.Seq)
		}
	})
}

// walSessionRecord is one session record as it lies in a data dir: its
// segment file, the end offset of its frame there, and its payload.
type walSessionRecord struct {
	seg   string
	end   int64
	state sessionState
	raw   []byte
}

// walSessionRecords lists a data dir's session records in log order.
func walSessionRecords(t *testing.T, dir string) []walSessionRecord {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	sort.Strings(segs)
	var out []walSessionRecord
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		const header = 12 // segment magic + format version
		for off := header; off < len(data); {
			rec, n, err := store.DecodeRecord(data[off:])
			if err != nil {
				t.Fatalf("%s at %d: %v", seg, off, err)
			}
			off += n
			if rec.Type != store.RecordSession {
				continue
			}
			st, err := decodeSessionRecord(rec.Payload)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, walSessionRecord{seg: filepath.Base(seg), end: int64(off), state: st, raw: slices.Clone(rec.Payload)})
		}
	}
	return out
}

// copyDataDir copies a data dir's files into a fresh temp dir.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// auditRecords decodes a session's audit log. Caller holds t.mu (or owns
// the session).
func (t *trackedSession) auditRecords() []AuditRecord {
	if len(t.audit) == 0 {
		return nil
	}
	out := make([]AuditRecord, len(t.audit))
	for i, b := range t.audit {
		if err := json.Unmarshal(b, &out[i]); err != nil {
			panic(fmt.Sprintf("session %s audit record %d does not decode: %v", t.id, i, err))
		}
	}
	return out
}

// sessionAudit reads one live session's audit state under its lock.
func sessionAudit(s *Server, id string) (seq, auditN uint64, audit []AuditRecord) {
	s.mu.RLock()
	t := s.sessions[id]
	s.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq, t.auditN, t.auditRecords()
}

// TestSessionRecordSizeIndependentOfWindows: a session's k-th transition
// record costs what its first did — it carries its own audit record, not
// the log so far — read from sompid's own
// sompid_wal_appended_bytes_total{record="session"}.
func TestSessionRecordSizeIndependentOfWindows(t *testing.T) {
	s, ts := newDurable(t, t.TempDir(), store.Options{})
	const series = `sompid_wal_appended_bytes_total{record="session"}`
	// A workload that keeps re-optimizing for all the windows below.
	req := trackedPlan()
	req.App, req.DeadlineHours = "LAMMPS-32", 120
	durablePost(t, ts.URL+"/v1/plan", req)
	prev := promValue(t, durableGet(t, ts.URL+"/metrics"), series)
	if prev <= 0 {
		t.Fatalf("%s = %v after a registration", series, prev)
	}
	const windows = 8
	var sizes []float64
	for k := 1; k <= windows; k++ {
		ingestHours(t, ts.URL, 2)
		cur := promValue(t, durableGet(t, ts.URL+"/metrics"), series)
		sizes = append(sizes, cur-prev)
		prev = cur
	}
	if seq, auditN, _ := sessionAudit(s, "s1"); seq != windows+1 || auditN != windows {
		t.Fatalf("precondition: seq %d audit_n %d after %d windows, want one transition per window", seq, auditN, windows)
	}
	t.Logf("session record bytes per window: %v", sizes)
	// A record carrying the log so far grows by a whole audit record (two
	// plan payloads and a version map, ~0.9 KB here) per window; the
	// payload's own jitter (plan width, digits) is a few dozen bytes.
	for k, b := range sizes {
		if b > sizes[0]*1.1 {
			t.Fatalf("window %d's record is %v bytes against the first's %v: records grow with the session's age (%v)", k+1, b, sizes[0], sizes)
		}
	}
}

// TestRecoverEveryRecordPrefix truncates a session's WAL right after
// each of its session records in turn and recovers each prefix: the
// recovered session is exactly that record's — its Seq, AuditN, and an
// audit that is the first AuditN records of the full run's — and
// re-persists from there without a gap (one more window, then another
// recovery that must reproduce the live state).
func TestRecoverEveryRecordPrefix(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurable(t, dir, store.Options{})
	durablePost(t, ts1.URL+"/v1/plan", trackedPlan())
	for k := 0; k < 5; k++ {
		ingestHours(t, ts1.URL, 2)
	}
	_, fullN, full := sessionAudit(s1, "s1")
	recs := walSessionRecords(t, dir)
	if len(recs) != 6 || fullN != 5 {
		t.Fatalf("precondition: %d session records, audit_n %d; want 6 and 5", len(recs), fullN)
	}
	for i, rec := range recs {
		if i > 0 && len(rec.state.AuditTail) != 1 {
			t.Fatalf("record %d carries %d audit records, want its own one", i, len(rec.state.AuditTail))
		}
		prefix := copyDataDir(t, dir)
		if err := os.Truncate(filepath.Join(prefix, rec.seg), rec.end); err != nil {
			t.Fatal(err)
		}
		s2, ts2 := newDurable(t, prefix, store.Options{})
		seq, auditN, audit := sessionAudit(s2, "s1")
		if seq != rec.state.Seq || auditN != rec.state.AuditN || len(audit) != int(auditN) ||
			(auditN > 0 && !reflect.DeepEqual(audit, full[:auditN])) {
			t.Fatalf("prefix through record %d: seq %d audit_n %d log %d records, want seq %d audit_n %d and the first %d of the run's",
				i, seq, auditN, len(audit), rec.state.Seq, rec.state.AuditN, rec.state.AuditN)
		}
		ingestHours(t, ts2.URL, 2)
		s3, ts3 := newDurable(t, prefix, store.Options{})
		assertRecoveredExactly(t, s2, s3, ts2.URL, ts3.URL)
	}
}

// TestFailedAppendRecordsRideTheNext: a transition whose record never
// reached the WAL leaves its audit record unlogged, and the session's
// next record carries it, so the WAL still folds to the whole log.
func TestFailedAppendRecordsRideTheNext(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurable(t, dir, store.Options{})
	durablePost(t, ts.URL+"/v1/plan", trackedPlan())
	ingestHours(t, ts.URL, 2)

	s.mu.RLock()
	sess := s.sessions["s1"]
	s.mu.RUnlock()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	// Two synthetic decisions, the first persisted into a dead WAL.
	s.recordAudit(sess, "reoptimized", &sess.plan, sess.planCost, nil)
	if err := s.store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.persistSession(sess); err == nil {
		t.Fatal("precondition: an append into a closed store succeeded")
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Recover(func([]byte) error { return nil }, func(store.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	s.store = st
	s.recordAudit(sess, "reoptimized", &sess.plan, sess.planCost, nil)
	if err := s.persistSession(sess); err != nil {
		t.Fatal(err)
	}

	recs := walSessionRecords(t, dir)
	if last := recs[len(recs)-1].state; len(last.AuditTail) != 2 {
		t.Fatalf("the record after a failed append carries %d audit records, want its own and the lost one's", len(last.AuditTail))
	}
	var got sessionState
	for _, rec := range recs {
		if err := got.fold(rec.state); err != nil {
			t.Fatal(err)
		}
	}
	if got.AuditN != sess.auditN || !reflect.DeepEqual(got.Audit, sess.auditRecords()) {
		t.Fatalf("WAL folds to audit_n %d with %d records, session holds %d with %d",
			got.AuditN, len(got.Audit), sess.auditN, len(sess.audit))
	}
}

// TestAdoptedSessionRecordStandsAlone: the first record a session writes
// into a WAL it is new to — a promotion adopting a peer's staged session,
// before the promotion's snapshot lands — re-logs the retained audit, so
// that WAL alone folds back to the whole session.
func TestAdoptedSessionRecordStandsAlone(t *testing.T) {
	peer := t.TempDir()
	_, tsPeer := newDurable(t, peer, store.Options{})
	durablePost(t, tsPeer.URL+"/v1/plan", trackedPlan())
	for k := 0; k < 3; k++ {
		ingestHours(t, tsPeer.URL, 2)
	}
	var staged sessionState
	for _, rec := range walSessionRecords(t, peer) {
		if err := staged.fold(rec.state); err != nil {
			t.Fatal(err)
		}
	}
	if staged.AuditN != 3 {
		t.Fatalf("precondition: staged audit_n %d, want 3", staged.AuditN)
	}

	home := t.TempDir()
	s, ts := newDurable(t, home, store.Options{})
	for k := 0; k < 3; k++ {
		ingestHours(t, ts.URL, 2) // the same market, no sessions
	}
	adopted, err := s.materializeSession(staged)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.persistSession(adopted); err != nil {
		t.Fatal(err)
	}
	var got sessionState
	for _, rec := range walSessionRecords(t, home) {
		if err := got.fold(rec.state); err != nil {
			t.Fatalf("the adopting WAL does not fold on its own: %v", err)
		}
	}
	if got.Seq != staged.Seq+1 || got.AuditN != staged.AuditN || !reflect.DeepEqual(got.Audit, staged.Audit) {
		t.Fatalf("adopting WAL folds to seq %d audit_n %d with %d audit records, want seq %d audit_n %d and the staged log",
			got.Seq, got.AuditN, len(got.Audit), staged.Seq+1, staged.AuditN)
	}
}

// TestRecoverLegacyDataDir recovers a data dir written before session
// records carried their audit tail (testdata/legacy_session_wal: one
// tracked session across four windows, WAL only, made by the commit
// before the tail form with newDurable, trackedPlan and four
// ingestHours(2)) and serves exactly the /v1/sessions bytes that binary
// served. It then advances two more windows — a log now mixing legacy
// full-form records with tail-form ones — and recovers that as well.
func TestRecoverLegacyDataDir(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "legacy_session_wal.sessions.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := copyDataDir(t, filepath.Join("testdata", "legacy_session_wal"))
	s1, ts1 := newDurable(t, dir, store.Options{})
	if got := durableGet(t, ts1.URL+"/v1/sessions"); !bytes.Equal(got, want) {
		t.Fatalf("/v1/sessions recovered from the legacy data dir:\n%s\nthe writing binary served:\n%s", got, want)
	}
	ingestHours(t, ts1.URL, 2)
	ingestHours(t, ts1.URL, 2)

	legacy, tails := 0, 0
	for _, rec := range walSessionRecords(t, dir) {
		var keys map[string]json.RawMessage
		json.Unmarshal(rec.raw, &keys)
		if _, ok := keys["audit_n"]; ok {
			tails++
		} else {
			legacy++
		}
	}
	if legacy != 5 || tails != 2 {
		t.Fatalf("the log holds %d legacy and %d tail-form session records, want 5 and 2", legacy, tails)
	}
	s2, ts2 := newDurable(t, dir, store.Options{})
	assertRecoveredExactly(t, s1, s2, ts1.URL, ts2.URL)
}
