package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// client is one connection to a sompid: its own transport holding a
// single keep-alive connection, used by one goroutine at a time.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        1,
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				IdleConnTimeout:     time.Minute,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// result is what one sent record came back as.
type result struct {
	// latNs is the exact client-side latency: from the send (closed
	// loop) or from the due time (open loop) to the last body byte.
	latNs int64
	// lateNs is how long after its due time an open-loop record was
	// actually sent.
	lateNs int64
	status int
	cache  string // X-Sompid-Cache: "hit", "miss" or ""
	body   []byte // only for records that asked to keep it
	err    error
}

// ok reports whether the record was answered 200.
func (r *result) ok() bool { return r.err == nil && r.status == http.StatusOK }

// send issues one record and reads the whole response.
func (c *client) send(rc *rec) result {
	var body io.Reader
	if rc.Body != "" {
		body = strings.NewReader(rc.Body)
	}
	req, err := http.NewRequest(rc.Method, c.base+rc.Path, body)
	if err != nil {
		return result{err: err}
	}
	if rc.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return result{err: err}
	}
	defer resp.Body.Close()
	res := result{status: resp.StatusCode, cache: resp.Header.Get("X-Sompid-Cache")}
	if rc.keep || resp.StatusCode != http.StatusOK {
		res.body, res.err = io.ReadAll(resp.Body)
	} else {
		_, res.err = io.Copy(io.Discard, resp.Body)
	}
	return res
}

// get fetches a path outside any measured loop.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, b)
	}
	return b, nil
}

func (c *client) scrape() (sample, error) {
	b, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(b))
}

// closedLoop sends recs with one goroutine per client, each taking the
// next unsent record when its previous one completed. It returns one
// result per record, in record order, and the wall time of the loop.
func closedLoop(clients []*client, recs []rec) ([]result, time.Duration) {
	out := make([]result, len(recs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(recs) {
					return
				}
				t0 := time.Now()
				out[i] = c.send(&recs[i])
				out[i].latNs = time.Since(t0).Nanoseconds()
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// openLoop sends every record at its due time (start + TimeMS) on the
// connection the record names, whether or not earlier records have been
// answered on the other connection; a connection still busy sends late.
// Latency counts from the due time, so a stall charges every record it
// delays.
func openLoop(clients []*client, recs []rec, start time.Time) []result {
	out := make([]result, len(recs))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for i := range recs {
				if recs[i].conn != ci {
					continue
				}
				due := start.Add(time.Duration(recs[i].TimeMS * float64(time.Millisecond)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				out[i] = c.send(&recs[i])
				out[i].latNs = time.Since(due).Nanoseconds()
				out[i].lateNs = sent.Sub(due).Nanoseconds()
			}
		}(ci, c)
	}
	wg.Wait()
	return out
}

// post sends a body outside any measured loop and returns the response.
func (c *client) post(path string, body []byte) ([]byte, error) {
	r := rec{keep: true}
	r.Method, r.Path, r.Body = "POST", path, string(body)
	out := c.send(&r)
	if !out.ok() {
		return nil, fmt.Errorf("POST %s: status %d err %v %s", path, out.status, out.err, out.body)
	}
	return out.body, nil
}
