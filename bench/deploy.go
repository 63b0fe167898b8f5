package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// deployment is the sompid under test: one child, or two for the
// cluster workload. Requests go to entry.
type deployment struct {
	env   *env
	nodes []*child
	dirs  []string
	entry string
	specs []nodeSpec // per node, to restart it on its data dir
}

// nodeSpec is how one node was started: the address it was promised
// ("" = any port) and its flags.
type nodeSpec struct {
	addr string
	args []string
}

func (d *deployment) stop() {
	for _, n := range d.nodes {
		n.kill()
	}
	for _, dir := range d.dirs {
		d.env.removeDir(dir)
	}
}

// cpuSeconds sums user+system CPU over the deployment's children.
func (d *deployment) cpuSeconds() (float64, error) {
	var t float64
	for _, n := range d.nodes {
		c, err := n.cpuSeconds()
		if err != nil {
			return 0, err
		}
		t += c
	}
	return t, nil
}

// rssPeakMB is the largest resident-set peak among the children.
func (d *deployment) rssPeakMB() (float64, error) {
	var peak float64
	for _, n := range d.nodes {
		r, err := n.rssPeakMB()
		if err != nil {
			return 0, err
		}
		peak = math.Max(peak, r)
	}
	return peak, nil
}

// scrape sums every node's /metrics.
func (d *deployment) scrape() (sample, error) {
	total := make(sample)
	for _, n := range d.nodes {
		s, err := n.ctl.scrape()
		if err != nil {
			return nil, err
		}
		total.add(s)
	}
	return total, nil
}

// deploy execs the workload's sompid (or pair) and waits until it is
// healthy.
func (e *env) deploy(name string) (*deployment, error) {
	d := &deployment{env: e}
	base := []string{"-hours", fmt.Sprint(marketHours), "-seed", fmt.Sprint(marketSeed)}
	if name == wlBoundary {
		base = append(base, "-window", fmt.Sprint(boundaryWindow))
	}
	durable := func(node string) ([]string, error) {
		dir, err := e.tempDir(name + "-" + node)
		if err != nil {
			return nil, err
		}
		d.dirs = append(d.dirs, dir)
		return []string{"-data-dir", filepath.Join(dir, "data"), "-fsync=" + fmt.Sprint(e.fsync)}, nil
	}
	fail := func(err error) (*deployment, error) {
		d.stop()
		return nil, err
	}
	switch name {
	case wlPlanMiss:
		d.specs = []nodeSpec{{args: base}}
	case wlIngest, wlBoundary, wlMixed:
		dd, err := durable("a")
		if err != nil {
			return fail(err)
		}
		d.specs = []nodeSpec{{args: append(base, dd...)}}
	case wlCluster:
		var addrs [2]string
		for i := range addrs {
			port, err := freePort()
			if err != nil {
				return fail(err)
			}
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", port)
		}
		for i, node := range []string{"a", "b"} {
			dd, err := durable(node)
			if err != nil {
				return fail(err)
			}
			args := append(append([]string{}, base...), dd...)
			args = append(args, "-cluster-self", node,
				"-cluster-node", "a=http://"+addrs[0], "-cluster-node", "b=http://"+addrs[1],
				"-cluster-probe", "100ms")
			d.specs = append(d.specs, nodeSpec{addr: addrs[i], args: args})
		}
	}
	// Start the peer first so the entry node's follower connects at once.
	for i := len(d.specs) - 1; i >= 0; i-- {
		c, err := e.start(d.specs[i].addr, d.specs[i].args...)
		if err != nil {
			return fail(err)
		}
		d.nodes = append([]*child{c}, d.nodes...)
	}
	for _, n := range d.nodes {
		if err := n.waitHealthy(); err != nil {
			return fail(err)
		}
	}
	if name == wlCluster {
		// Replication must be streaming both ways before traffic starts,
		// or the first synchronous barrier waits out a follower retry.
		deadline := time.Now().Add(20 * time.Second)
		for _, n := range d.nodes {
			for {
				s, err := n.ctl.scrape()
				if err == nil && s.get("sompid_cluster_peers_connected", "") >= 1 {
					break
				}
				if time.Now().After(deadline) {
					return fail(fmt.Errorf("cluster node %s never connected to its peer: %v", n.url, err))
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	d.entry = d.nodes[0].url
	return d, nil
}

// clientsFor is how many connections drive a workload.
func clientsFor(name string) int {
	if name == wlBoundary {
		return 1
	}
	return 2
}

func openLoopWorkload(name string) bool { return name == wlMixed || name == wlCluster }

// sendWarmup plays the untimed warm-up the way the workload will be
// driven: open-loop workloads on the records' own connections, closed
// loops from one queue. Any failure aborts the run — a workload on
// which operations fail measures nothing.
func sendWarmup(name string, clients []*client, warm []rec) error {
	var results []result
	if openLoopWorkload(name) {
		// No pacing: every record is already due.
		pending := append([]rec(nil), warm...)
		for i := range pending {
			pending[i].TimeMS = 0
		}
		results = openLoop(clients, pending, time.Now())
	} else {
		results, _ = closedLoop(clients, warm)
	}
	for i := range results {
		if !results[i].ok() {
			return fmt.Errorf("warm-up record %d (%s %s): status %d err %v %s",
				i, warm[i].Method, warm[i].Path, results[i].status, results[i].err, results[i].body)
		}
	}
	return nil
}

// stage is one freshly set-up deployment: sompid exec'd, healthy and
// warmed up, with the scrape and CPU reading its measured window starts
// from.
type stage struct {
	dep     *deployment
	clients []*client
	setupS  float64
	before  sample
	cpu0    float64
}

func (e *env) setUp(name string, warm []rec) (*stage, error) {
	start := time.Now()
	dep, err := e.deploy(name)
	if err != nil {
		return nil, err
	}
	st := &stage{dep: dep, clients: make([]*client, clientsFor(name))}
	for i := range st.clients {
		st.clients[i] = newClient(dep.entry)
	}
	if err := sendWarmup(name, st.clients, warm); err != nil {
		st.close()
		return nil, err
	}
	st.setupS = time.Since(start).Seconds()
	if st.before, err = dep.scrape(); err == nil {
		st.cpu0, err = dep.cpuSeconds()
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stage) close() {
	for _, c := range st.clients {
		c.close()
	}
	st.dep.stop()
}

// window accumulates, over a run's stages, what sompid itself reported
// and used while it was being measured.
type window struct {
	cpuS    float64
	rssPeak float64
	d       sample // /metrics delta, summed over stages
	after   sample // the last stage's closing scrape, for gauges
}

// end closes a stage's measured window into w.
func (w *window) end(st *stage) error {
	cpu1, err := st.dep.cpuSeconds()
	if err != nil {
		return err
	}
	after, err := st.dep.scrape()
	if err != nil {
		return err
	}
	rss, err := st.dep.rssPeakMB()
	if err != nil {
		return err
	}
	w.cpuS += cpu1 - st.cpu0
	w.rssPeak = math.Max(w.rssPeak, rss)
	if w.d == nil {
		w.d = make(sample)
	}
	w.d.add(delta(after, st.before))
	w.after = after
	return nil
}
