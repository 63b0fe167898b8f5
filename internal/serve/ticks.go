package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"sync"

	"sompi/internal/cloud"
)

// A parse step returns the index after what it parsed, or one of these.
const (
	short = -1 // the buffer ends inside a canonical element: read more
	bad   = -2 // the element is outside the canonical shape: fall back
)

// bigElem is the pooled buffer's first size. A short element past it
// reads until its buffered bytes double before it is parsed again, so
// its re-parses cost O(element) in all.
const bigElem = 4 << 10

// maxPooled bounds the scratch a scanner goes back to the pool with.
const maxPooled = 64 << 10

var tickKeys = [...]string{"type", "zone", "prices"}

// onTickFallback, when set, is called each time a stream leaves the fast
// path. Only tests set it.
var onTickFallback func()

var scanners = sync.Pool{New: func() any { return &tickScanner{buf: make([]byte, 0, bigElem)} }}

// tickScanner is one request's read buffer and parse scratch.
type tickScanner struct {
	r     io.Reader
	names map[string]string
	buf   []byte // buf[pos:] is read but not yet consumed
	pos   int
	err   error       // the body's read error, io.EOF at its end; never read past
	ticks []PriceTick // the element being parsed
	nums  []float64   // the prices of the tick being parsed
}

// internNames maps every type and zone name of the market to itself, so
// the scanner resolves a known name without allocating it.
func internNames(keys []cloud.MarketKey) map[string]string {
	names := make(map[string]string, 2*len(keys))
	for _, k := range keys {
		names[k.Type], names[k.Zone] = k.Type, k.Zone
	}
	return names
}

// scanTicks applies exactly the ticks, and fails with exactly the errors,
// of forEachTick over a json.Decoder (DESIGN §13). It parses the
// canonical shape in one pass — an object whose keys are the lower-case
// "type", "zone" and "prices", each at most once, with printable-ASCII
// strings free of escapes and JSON numbers strconv.ParseFloat takes, or
// an array of such objects, parsed whole before any of its ticks applies.
// From the first other element, or a failed read, the stream goes to
// forEachTick, the only source of decode errors.
func scanTicks(body io.Reader, names map[string]string, applied func() int, apply func(PriceTick) error) error {
	sc := scanners.Get().(*tickScanner)
	defer sc.release()
	sc.r, sc.names = body, names
	for sc.next() {
		for _, t := range sc.ticks {
			if err := applyTick(t, applied, apply); err != nil {
				return err
			}
		}
	}
	if sc.err == io.EOF && sc.pos == len(sc.buf) {
		return nil
	}
	if onTickFallback != nil {
		onTickFallback()
	}
	rest := sc.r
	if sc.err != nil {
		rest = errReader{sc.err}
	}
	return forEachTick(json.NewDecoder(io.MultiReader(bytes.NewReader(sc.buf[sc.pos:]), rest)), applied, apply)
}

// errReader replays a read error the scanner already took from the body.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// release returns the scanner to the pool without the request's data.
func (sc *tickScanner) release() {
	if cap(sc.buf) > maxPooled || 8*cap(sc.nums) > maxPooled || 64*cap(sc.ticks) > maxPooled {
		return
	}
	clear(sc.ticks[:cap(sc.ticks)])
	*sc = tickScanner{buf: sc.buf[:0], ticks: sc.ticks[:0], nums: sc.nums[:0]}
	scanners.Put(sc)
}

// next parses the element at the front of the buffer into sc.ticks,
// reading more of the body while it is short. It reports false at the
// end of the body and at an element outside the canonical shape, with
// sc.pos on the first byte not consumed.
func (sc *tickScanner) next() bool {
	for {
		if sc.pos = skipSpace(sc.buf, sc.pos); sc.pos < len(sc.buf) {
			sc.ticks = sc.ticks[:0]
			b := sc.buf[sc.pos:]
			var n int
			if b[0] == '{' {
				n = sc.object(b, 0)
			} else {
				n = seq(b, 0, '[', ']', func(i int) int { return sc.object(b, i) })
			}
			if n >= 0 {
				sc.pos += n
				return true
			}
			if n == bad {
				return false
			}
		}
		if sc.err != nil {
			return false
		}
		sc.fill()
	}
}

// fill moves the unconsumed bytes to the front of the buffer, growing it
// when they fill it, and reads more of the body behind them.
func (sc *tickScanner) fill() {
	n := copy(sc.buf, sc.buf[sc.pos:])
	sc.buf, sc.pos = sc.buf[:n], 0
	for {
		if len(sc.buf) == cap(sc.buf) {
			sc.buf = slices.Grow(sc.buf, max(n, 512))
		}
		m, err := sc.r.Read(sc.buf[len(sc.buf):cap(sc.buf)])
		sc.buf = sc.buf[:len(sc.buf)+m]
		if err != nil {
			sc.err = err
			return
		}
		if n < bigElem || len(sc.buf) >= 2*n {
			return
		}
	}
}

// object parses one tick object at b[i] onto sc.ticks. Its prices are
// allocated once, at their counted length.
func (sc *tickScanner) object(b []byte, i int) int {
	var t PriceTick
	var seen [len(tickKeys)]bool
	end := seq(b, i, '{', '}', func(i int) int {
		key, i := str(b, i)
		if i = expect(b, i, ':'); i < 0 {
			return i
		}
		k := slices.Index(tickKeys[:], string(key))
		if k < 0 || seen[k] {
			return bad
		}
		seen[k] = true
		var val []byte
		switch i = skipSpace(b, i); tickKeys[k] {
		case "type":
			val, i = str(b, i)
			t.Type = sc.name(val)
		case "zone":
			val, i = str(b, i)
			t.Zone = sc.name(val)
		case "prices":
			sc.nums = sc.nums[:0]
			i = seq(b, i, '[', ']', func(i int) int {
				f, i := number(b, i)
				sc.nums = append(sc.nums, f)
				return i
			})
			if i >= 0 {
				t.Prices = append(make([]float64, 0, len(sc.nums)), sc.nums...)
			}
		}
		return i
	})
	if end >= 0 {
		sc.ticks = append(sc.ticks, t)
	}
	return end
}

// name returns the interned copy of a known name, else a new string.
func (sc *tickScanner) name(b []byte) string {
	if s, ok := sc.names[string(b)]; ok {
		return s
	}
	return string(b)
}

// seq parses opener, items separated by commas, and closer at b[i], with
// whitespace around each; item parses one item at b[i].
func seq(b []byte, i int, opener, closer byte, item func(int) int) int {
	if i = expect(b, i, opener); i < 0 {
		return i
	}
	if end := expect(b, i, closer); end != bad {
		return end
	}
	for {
		if i = item(skipSpace(b, i)); i < 0 {
			return i
		}
		if end := expect(b, i, closer); end != bad {
			return end
		}
		if i = expect(b, i, ','); i < 0 {
			return i
		}
	}
}

// expect consumes c after any whitespace at b[i]; a negative i passes
// through.
func expect(b []byte, i int, c byte) int {
	switch i = skipSpace(b, i); {
	case i < 0:
		return i
	case i == len(b):
		return short
	case b[i] != c:
		return bad
	}
	return i + 1
}

// str parses a string of printable ASCII without escapes at b[i] and
// returns its contents.
func str(b []byte, i int) ([]byte, int) {
	if i = expect(b, i, '"'); i < 0 {
		return nil, i
	}
	for j := i; j < len(b); j++ {
		if c := b[j]; c == '"' {
			return b[i:j], j + 1
		} else if c < 0x20 || c >= 0x80 || c == '\\' {
			return nil, bad
		}
	}
	return nil, short
}

// number parses a number of the JSON grammar at b[i].
func number(b []byte, i int) (float64, int) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	if j < len(b) && b[j] == '0' {
		j++
	} else if j = digits(b, j); j < 0 {
		return 0, j
	}
	if j < len(b) && b[j] == '.' {
		j = digits(b, j+1)
	}
	if j >= 0 && j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		if j++; j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		j = digits(b, j)
	}
	if j == len(b) {
		j = short // at the end, more digits may follow
	}
	if j < 0 {
		return 0, j
	}
	f, err := strconv.ParseFloat(string(b[i:j]), 64)
	if err != nil {
		return 0, bad
	}
	return f, j
}

// digits consumes one or more decimal digits at b[i].
func digits(b []byte, i int) int {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	switch {
	case j > i:
		return j
	case i == len(b):
		return short
	}
	return bad
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace; a negative i passes through.
func skipSpace(b []byte, i int) int {
	for i >= 0 && i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}
