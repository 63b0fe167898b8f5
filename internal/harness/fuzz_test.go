package harness

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCaptureSmokeFixtureDecodes pins the committed capture fixture:
// every line decodes, seq is dense from 0, timestamps never go
// backwards, and the record set survives an encode/decode round trip.
// The fixture doubles as the fuzz seed corpus and as the replay smoke's
// known-good capture shape.
func TestCaptureSmokeFixtureDecodes(t *testing.T) {
	recs, err := Load(filepath.Join("testdata", "capture_smoke.ndjson"))
	if err != nil {
		t.Fatalf("Load fixture: %v", err)
	}
	if len(recs) != 10 {
		t.Fatalf("fixture holds %d records, want 10", len(recs))
	}
	last := -1.0
	endpoints := map[string]bool{}
	for i, r := range recs {
		if r.Seq != i {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.TimeMS < last {
			t.Fatalf("record %d: t_ms %v < previous %v", i, r.TimeMS, last)
		}
		last = r.TimeMS
		endpoints[r.Endpoint] = true

		line, err := EncodeRecord(r)
		if err != nil {
			t.Fatalf("re-encode record %d: %v", i, err)
		}
		back, err := DecodeCaptureRecord(line)
		if err != nil {
			t.Fatalf("re-decode record %d: %v", i, err)
		}
		if !reflect.DeepEqual(r, back) {
			t.Fatalf("record %d round trip drifted:\n got %+v\nwant %+v", i, back, r)
		}
	}
	for _, ep := range []string{"plan", "evaluate", "montecarlo", "prices", "sessions", "strategies"} {
		if !endpoints[ep] {
			t.Fatalf("fixture covers %v; missing endpoint %q", endpoints, ep)
		}
	}
}

// FuzzDecodeCaptureRecord drives arbitrary bytes through the capture
// decoder: it must never panic, failures must be typed ErrBadRecord,
// and every accepted record must re-encode to a line that decodes to
// the same record.
func FuzzDecodeCaptureRecord(f *testing.F) {
	fixture, err := os.Open(filepath.Join("testdata", "capture_smoke.ndjson"))
	if err != nil {
		f.Fatalf("open fixture: %v", err)
	}
	sc := bufio.NewScanner(fixture)
	for sc.Scan() {
		f.Add(append([]byte(nil), sc.Bytes()...))
	}
	fixture.Close()
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seq":-1,"method":"GET","path":"/","status":200}`))
	f.Add([]byte(`{"seq":0,"t_ms":1e999,"method":"GET","path":"/","status":200}`))
	f.Add([]byte(`{"method":"GET","path":"relative","status":200}`))
	f.Add([]byte(`{"method":"GET","path":"/","status":99}`))
	f.Add([]byte(`{"method":"GET","path":"/","status":200}{"again":true}`))
	f.Add([]byte(`[{"method":"GET"}]`))
	f.Add([]byte(`{"unknown_field":1,"method":"GET","path":"/","status":200}`))
	f.Add([]byte("{\"method\":\"GET\",\"path\":\"/\",\"status\":200}\n\n"))

	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := DecodeCaptureRecord(line)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		out, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %+v: %v", rec, err)
		}
		back, err := DecodeCaptureRecord(out)
		if err != nil {
			t.Fatalf("re-encoded line does not decode: %s: %v", out, err)
		}
		if !reflect.DeepEqual(rec, back) {
			t.Fatalf("round trip drifted:\n got %+v\nwant %+v", back, rec)
		}
	})
}
