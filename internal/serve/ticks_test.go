package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"sompi/internal/cloud"
)

// scanKeys names the shards the scanner tests intern; a tick naming
// anything else still decodes, through an allocated string.
var scanKeys = []cloud.MarketKey{
	{Type: "m1.small", Zone: "us-east-1a"}, {Type: "m1.small", Zone: "us-east-1b"},
	{Type: "c3.xlarge", Zone: "us-east-1a"}, {Type: "c3.xlarge", Zone: "us-east-1b"},
}

// errRefused is the apply error collect raises for a tick zoned "refuse",
// so the differential also compares where an apply failure stops a feed.
var errRefused = errors.New("refused")

// collect runs decode, recording every tick it applies, and returns the
// ticks and the error text ("" for none).
func collect(decode func(applied func() int, apply func(PriceTick) error) error) ([]PriceTick, string) {
	var got []PriceTick
	err := decode(func() int { return len(got) }, func(t PriceTick) error {
		if t.Zone == "refuse" {
			return errRefused
		}
		got = append(got, t)
		return nil
	})
	if err != nil {
		return got, err.Error()
	}
	return got, ""
}

// FuzzScanTicks is the fast path's differential gate: for any body,
// scanTicks applies exactly the ticks forEachTick over encoding/json
// applies (DeepEqual, so nil and empty prices stay distinct) and fails
// with exactly its error text, whether the body arrives whole, a byte
// at a time or in halves.
func FuzzScanTicks(f *testing.F) {
	tick := `{"type":"m1.small","zone":"us-east-1a","prices":[0.01,0.02]}`
	seeds := []string{
		tick,
		tick + "\n" + tick + "\n",
		`[` + tick + `,{"prices":[0.5],"zone":"us-east-1b","type":"c3.xlarge"}]`,
		` { "type" : "m1.small" , "zone" : "x" , "prices" : [ 1 , 2 ] } `,
		`{"type":"m1.small","zone":"us-east-1a"}`,
		`{"type":"m1.small","zone":"us-east-1a","prices":[]}`,
		`{}[][{}]`,
		`{"type":"t","zone":"z","prices":[-0,1E-7,0.5e+3,12]}`,
		`{"type":"t","zone":"z","prices":[1e999]}`,
		`{"type":"t","zone":"z","prices":[1e-999,-1]}`,
		`{"type":"t","type":"u","zone":"z"}`,
		`{"Type":"m1.small","zone":"us-east-1a"}`,
		`{"type":"t","zone":"z","extra":1}`,
		`{"type":"t","zone":"z","A":1}`,
		`{"type":"\u00e9","zone":"z"}`,
		"{\"type\":\"\xc3\xa9\",\"zone\":\"z\"}",
		"{\"type\":\"t\x7f\",\"zone\":\"z\"}",
		`{"type":null,"zone":"z","prices":null}`,
		`{"type":"t","zone":"z","prices":[null]}`,
		`{"type":"t","zone":"z","prices":[01]}`,
		`{"type":"t","zone":"z","prices":[1.]}`,
		tick + `garbage`,
		tick + `{"type":"t","zone":"refuse"}` + tick,
		`[` + tick + `,` + tick + `,null,` + tick + `]`,
		`[` + tick + `,` + tick + `,{"zone":"refuse"}]`,
		`[` + tick + `,` + tick + `,{"type":1}]`,
		`[]`, `null`, `[null]`, `[42,"x",true]`, `"tick"`, `{`, ``, " \n\t\r", "\x00\xff",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	for n := range tick {
		f.Add([]byte(tick[:n]))
	}
	names := internNames(scanKeys)
	readers := map[string]func(io.Reader) io.Reader{
		"whole":   func(r io.Reader) io.Reader { return r },
		"onebyte": iotest.OneByteReader,
		"half":    iotest.HalfReader,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := collect(func(applied func() int, apply func(PriceTick) error) error {
			return forEachTick(json.NewDecoder(bytes.NewReader(body)), applied, apply)
		})
		for name, wrap := range readers {
			got, gotErr := collect(func(applied func() int, apply func(PriceTick) error) error {
				return scanTicks(wrap(bytes.NewReader(body)), names, applied, apply)
			})
			if !reflect.DeepEqual(got, want) || gotErr != wantErr {
				t.Fatalf("%s read of %q:\nscanTicks   %#v, %q\nforEachTick %#v, %q", name, body, got, gotErr, want, wantErr)
			}
		}
	})
}

// TestScanTicksAllocs pins the fast path structurally: the feeds sompid
// is sent in practice decode without falling back to encoding/json, at
// a small fraction of its allocations (it makes 165 and 34 for the two
// bench shapes).
func TestScanTicksAllocs(t *testing.T) {
	names := internNames(scanKeys)
	var round bytes.Buffer
	for i := 0; i < 12; i++ {
		k := scanKeys[i%len(scanKeys)]
		b, _ := json.Marshal(PriceTick{Type: k.Type, Zone: k.Zone, Prices: []float64{0.0123 + float64(i)/1000}})
		round.Write(b)
		round.WriteByte('\n')
	}
	prices := make([]float64, 12)
	for i := range prices {
		prices[i] = 0.25 + float64(i)/97
	}
	backfill, _ := json.Marshal([]PriceTick{{Type: "c3.xlarge", Zone: "us-east-1b", Prices: prices}})
	// cluster.forwardPrices sends a peer its collected ticks as one array.
	forwarded, _ := json.Marshal([]PriceTick{
		{Type: "m1.small", Zone: "us-east-1a", Prices: []float64{1e-7, 3}},
		{Type: "c3.xlarge", Zone: "us-east-1b", Prices: []float64{}},
	})
	for _, c := range []struct {
		name   string
		body   []byte
		ticks  int
		allocs float64
	}{
		{"ingest-feed round", round.Bytes(), 12, 40},
		{"backfill", backfill, 1, 12},
		{"forwarded", forwarded, 2, 12},
	} {
		fallbacks := tickFallbacks.Load()
		n := 0
		apply := func(PriceTick) error { n++; return nil }
		allocs := testing.AllocsPerRun(100, func() {
			if err := scanTicks(bytes.NewReader(c.body), names, func() int { return n }, apply); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if d := tickFallbacks.Load() - fallbacks; d != 0 {
			t.Errorf("%s: fell back to encoding/json %d times", c.name, d)
		}
		if n != 101*c.ticks {
			t.Errorf("%s: applied %d ticks over 101 runs, want %d", c.name, n, 101*c.ticks)
		}
		if allocs > c.allocs {
			t.Errorf("%s: %.1f allocations per request, want <= %.0f", c.name, allocs, c.allocs)
		}
		t.Logf("%s: %.1f allocations per request", c.name, allocs)
	}
}

// TestScanTicksLargeElement: an element far past the first buffer, read
// in small pieces, still decodes whole, and the stream goes on after it.
func TestScanTicksLargeElement(t *testing.T) {
	var b strings.Builder
	b.WriteString(`[`)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"type":"m1.small","zone":"us-east-1a","prices":[%d.5,%d]}`, i, i)
	}
	b.WriteString("]\n" + `{"type":"t","zone":"z"}`)
	body := []byte(b.String())
	want, wantErr := collect(func(applied func() int, apply func(PriceTick) error) error {
		return forEachTick(json.NewDecoder(bytes.NewReader(body)), applied, apply)
	})
	fallbacks := tickFallbacks.Load()
	got, gotErr := collect(func(applied func() int, apply func(PriceTick) error) error {
		return scanTicks(iotest.HalfReader(bytes.NewReader(body)), internNames(scanKeys), applied, apply)
	})
	if len(want) != 2001 || wantErr != "" || !reflect.DeepEqual(got, want) || gotErr != "" {
		t.Fatalf("decoded %d ticks (%q), encoding/json %d (%q)", len(got), gotErr, len(want), wantErr)
	}
	if d := tickFallbacks.Load() - fallbacks; d != 0 {
		t.Fatalf("fell back %d times", d)
	}
}
