package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// printRun writes one run's numbers: every end-to-end metric it has,
// the counts beside them, and why it is wrong if it is.
func printRun(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%.3g  attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.E2E))
	for n := range r.E2E {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.E2E[n]
		fmt.Fprintf(w, "  %-24s %14.6g %-6s q1=%-12.6g q3=%-12.6g n=%d%s\n", n, s.Median, unitOf(n), s.Q1, s.Q3, s.N, alias(r.Workload, n))
	}
	series := make([]string, 0, len(r.Series))
	for n := range r.Series {
		series = append(series, n)
	}
	sort.Strings(series)
	for _, n := range series {
		fmt.Fprintf(w, "  series %-17s %.5g\n", n, r.Series[n])
	}
	counts := make([]string, 0, len(r.Counts))
	for n := range r.Counts {
		counts = append(counts, n)
	}
	sort.Strings(counts)
	for _, n := range counts {
		fmt.Fprintf(w, "  count %-18s %14.6g\n", n, r.Counts[n])
	}
	layers := make([]string, 0, len(r.Layer))
	for n := range r.Layer {
		layers = append(layers, n)
	}
	sort.Strings(layers)
	for _, n := range layers {
		fmt.Fprintf(w, "  layer %-32s %14.6g%s\n", n, r.Layer[n], alias(r.Workload, n))
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  WRONG: %s\n", p)
	}
}

// alias is the note that says which of the issue's names a line is.
func alias(workload, metric string) string {
	if n := issueName(workload, metric); n != "" {
		return "  = " + n
	}
	return ""
}

// unitOf is the unit an end-to-end metric is printed with: the
// catalog's, and ms for the ungated latencies printed beside them
// (op_tail_ms, prices_p50_ms, prices_p99_ms).
func unitOf(name string) string {
	for _, m := range e2eCatalog {
		if m.Name == name {
			return m.Unit
		}
	}
	return "ms"
}

// skippedGate is a metric or workload this machine cannot measure: it
// is listed with the reason and never reported as passed.
type skippedGate struct {
	Name   string `json:"name"`
	Reason string `json:"reason"`
}

// ledger is the suite's full output, also written to bench/out.
type ledger struct {
	Date     string             `json:"date"`
	Machine  machine            `json:"machine"`
	BuildS   float64            `json:"build_s"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Runs     []*runResult       `json:"runs"`
	PerLayer map[string]float64 `json:"per_layer"`
	// Skipped lists what this machine cannot show; UnstableFS names the
	// durable workloads when their data dirs are not on tmpfs: they ran
	// without fsync, on a page cache whose write-back is not steady.
	Skipped    []skippedGate `json:"skipped_gates"`
	UnstableFS []string      `json:"unstable_fs,omitempty"`
}

// oneCore reports whether the machine cannot run two things at once:
// the parallel-search probe and the two-node cluster then measure the
// scheduler's time-slicing, not the code.
func oneCore() bool { return runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 }

// suiteRuns measures every workload once. On a one-core machine
// cluster-mixed is skipped and listed.
func (e *env) suiteRuns(seed uint64, seconds float64, l *ledger) error {
	for _, name := range workloadNames {
		if name == wlCluster && oneCore() {
			l.Skipped = append(l.Skipped, skippedGate{wlCluster, "one core: two sompid nodes and the generator would time-slice it"})
			continue
		}
		fmt.Fprintf(os.Stderr, "bench: running %s for %gs\n", name, seconds)
		res, err := e.run(name, seed, seconds, fullRunPasses)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		l.Runs = append(l.Runs, res)
	}
	return nil
}

func (e *env) newLedger(seed uint64, seconds float64) *ledger {
	l := &ledger{
		Date:     time.Now().UTC().Format(time.RFC3339),
		Machine:  e.machine(),
		BuildS:   e.buildS,
		Seed:     seed,
		Seconds:  seconds,
		PerLayer: make(map[string]float64),
	}
	if !e.fsync {
		l.UnstableFS = []string{wlIngest, wlBoundary, wlMixed, wlCluster}
		for _, name := range []string{"store.fsyncs_per_op", "store.fsync_busy_s"} {
			l.Skipped = append(l.Skipped, skippedGate{name, "data dir on " + l.Machine.DataDirFS + ", not tmpfs: sompid ran with -fsync=false"})
		}
	}
	return l
}

// find returns the ledger's run of a workload, nil if it was skipped.
func (l *ledger) find(name string) *runResult {
	for _, r := range l.Runs {
		if r.Workload == name {
			return r
		}
	}
	return nil
}

// suite is the one command: every workload untraced for the end-to-end
// metrics, then the traced pass and the probes for the per-layer ones.
// With traceOnly it skips the untraced runs' report and writes only the
// span files and per-layer numbers.
func (e *env) suite(seed uint64, seconds float64, traceOnly bool) int {
	l := e.newLedger(seed, seconds)
	if err := e.suiteRuns(seed, seconds, l); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := e.suiteLayers(l); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	wrong := l.crossChecks()
	if !traceOnly {
		l.print(os.Stdout)
	} else {
		l.printLayers(os.Stdout)
	}
	path := filepath.Join(e.outDir, "ledger.json")
	if b, err := json.MarshalIndent(l, "", "  "); err == nil {
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bench: ledger written to %s\n", path)
	}
	for _, r := range l.Runs {
		wrong = wrong || !r.Correct
	}
	if wrong {
		fmt.Fprintln(os.Stderr, "bench: WRONG ANSWER — see the lines marked WRONG")
		return 1
	}
	return 0
}

// crossChecks holds what only two runs together can show: the cluster
// must answer the digest-checked records exactly as the single node.
func (l *ledger) crossChecks() (wrong bool) {
	m, c := l.find(wlMixed), l.find(wlCluster)
	if m == nil || c == nil {
		return false
	}
	if m.Digest != c.Digest {
		c.fail(1, "digest-checked records differ from mixed-replay's: %s vs %s", c.Digest, m.Digest)
		c.Correct = false
		wrong = true
	}
	return wrong
}

// print writes the whole ledger: machine shape, then per workload every
// end-to-end metric by name with its unit, then the per-layer metrics.
func (l *ledger) print(w io.Writer) {
	m := l.Machine
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d %s kernel=%s data-dir=%s (%s) fsync=%v build_s=%.2f\n",
		m.NProc, m.GOMAXPROCS, m.GoVersion, m.Kernel, m.DataDir, m.DataDirFS, m.Fsync, l.BuildS)
	for _, r := range l.Runs {
		printRun(w, r)
	}
	l.printLayers(w)
}

func (l *ledger) printLayers(w io.Writer) {
	fmt.Fprintln(w, "== per-layer")
	for _, m := range layerCatalog {
		skipped := false
		for _, s := range l.Skipped {
			skipped = skipped || s.Name == m.Name
		}
		if skipped {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s (%s)\n", m.Name, l.PerLayer[m.Name], m.Unit, m.source)
	}
	for _, s := range l.Skipped {
		fmt.Fprintf(w, "  skipped_gate %-24s %s\n", s.Name, s.Reason)
	}
	for _, u := range l.UnstableFS {
		fmt.Fprintf(w, "  unstable_fs %s: data dir on %s, not tmpfs — ran with -fsync=false, wall-clock metrics leave the durable path out\n", u, l.Machine.DataDirFS)
	}
}

// selfcheck runs the suite's untraced half twice back to back on the
// same code and seed (A/A) and fails if any gated end-to-end metric
// differs by more than its own bound.
func (e *env) selfcheck(seed uint64, seconds float64) int {
	var ab [2]*ledger
	for i := range ab {
		ab[i] = e.newLedger(seed, seconds)
		if err := e.suiteRuns(seed, seconds, ab[i]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	failed := false
	fmt.Printf("%-16s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "verdict")
	for _, ra := range ab[0].Runs {
		rb := ab[1].find(ra.Workload)
		for _, m := range e2eCatalog {
			a, b := ra.E2E[m.Name], rb.E2E[m.Name]
			ratio := b.Median / a.Median
			worse := ratio - 1
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			// A/A has no better side: either direction beyond the bound
			// means the metric does not repeat.
			verdict := "ok"
			if worse > m.Bound || -worse > m.Bound {
				verdict = "DIFFERS"
				failed = true
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %9.4f %6.0f%%  %s  (A q1=%.6g q3=%.6g n=%d; B q1=%.6g q3=%.6g n=%d)\n",
				ra.Workload, m.Name, a.Median, b.Median, ratio, m.Bound*100, verdict, a.Q1, a.Q3, a.N, b.Q1, b.Q3, b.N)
		}
		if !ra.Correct || !rb.Correct {
			fmt.Printf("%-16s WRONG ANSWER\n", ra.Workload)
			failed = true
		}
		// The counts beside the timings are exact: the same seed must
		// give the same checked answers and the same re-optimizations.
		for _, c := range []string{"pass0_reoptimizations", "records"} {
			if ra.Counts[c] != rb.Counts[c] {
				fmt.Printf("%-16s count %s differs: %g vs %g\n", ra.Workload, c, ra.Counts[c], rb.Counts[c])
				failed = true
			}
		}
		if ra.Digest != rb.Digest {
			fmt.Printf("%-16s digest of checked responses differs: %s vs %s\n", ra.Workload, ra.Digest, rb.Digest)
			failed = true
		}
	}
	for _, s := range ab[0].Skipped {
		fmt.Printf("skipped_gate %s: %s\n", s.Name, s.Reason)
	}
	if failed {
		fmt.Println("selfcheck: FAIL — a metric moved by more than its own bound between two runs of the same code")
		return 1
	}
	fmt.Println("selfcheck: PASS")
	return 0
}
