// Command sompi-replay replays a sompid capture log against one or two
// live sompid targets, diffs twin responses field-by-field under ignore
// rules, reports per-endpoint latency percentiles, error rates and
// cache hit-rates, and gates the outcome on a JSON rules file.
//
// Usage:
//
//	sompi-replay -log DIR|FILE -target name=url[,url...] [-target ...]
//	             [-rate 1.0] [-concurrency 1] [-timeout 30s]
//	             [-ignore field,path.field] [-rules rules.json]
//	             [-out report.json]
//
// A capture log is produced by sompid -capture-log DIR. With one
// -target the run is a load/latency replay; with two it is a twin-diff:
// every captured request is sent to both targets and the responses are
// compared, with /v1/plan responses additionally held to byte identity
// (the twin-equivalence gate; ?explain=1 responses are exempt because
// their trails carry wall-clock timings).
//
// -rate scales the capture's own pacing (1 = real time, 10 = 10x
// faster, 0 = as fast as the targets answer). -concurrency > 1 lets
// later records overtake slow ones, exactly like production traffic —
// keep it 1 for twin-diffs over order-sensitive traffic.
//
// The rules file (see internal/harness.Rules) sets latency budgets per
// endpoint, error-rate ceilings, a cache hit-rate floor, and diff
// tolerances. Exit codes, in precedence order:
//
//	0  replay completed, no twin diffs, every rule passed
//	1  twin targets diverged but no explicit rule was violated
//	2  one or more regression rules tripped
//	3  bad arguments or an unreadable rules file
//	4  the replay itself failed (unreadable capture, no responses)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"sompi/internal/harness"
)

// targetFlags collects repeated -target name=url flags.
type targetFlags []harness.Target

func (t *targetFlags) String() string {
	parts := make([]string, len(*t))
	for i, tg := range *t {
		parts[i] = tg.Name + "=" + tg.URL
	}
	return strings.Join(parts, ",")
}

func (t *targetFlags) Set(v string) error {
	name, urls, ok := strings.Cut(v, "=")
	if !ok || name == "" || urls == "" {
		return fmt.Errorf("want name=url[,url...], got %q", v)
	}
	// A comma-separated URL list addresses one logical target through
	// several nodes (a cluster): the first URL is primary, the rest are
	// transport-failure fallbacks, so the replay rides through a node
	// being killed mid-run.
	parts := strings.Split(urls, ",")
	for i, p := range parts {
		if parts[i] = strings.TrimSpace(p); parts[i] == "" {
			return fmt.Errorf("empty url in %q", v)
		}
	}
	*t = append(*t, harness.Target{Name: name, URL: parts[0], Fallback: parts[1:]})
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("sompi-replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var targets targetFlags
	var (
		logPath     = fs.String("log", "", "capture log: a directory written by sompid -capture-log, or a single NDJSON file")
		rate        = fs.Float64("rate", 0, "time-scale multiplier for the capture's own pacing (1 = real time, 0 = full speed)")
		concurrency = fs.Int("concurrency", 1, "in-flight replay requests (keep 1 for order-sensitive twin-diffs)")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-request timeout")
		ignore      = fs.String("ignore", "", "comma-separated extra diff ignore rules (field names or dotted paths)")
		rulesPath   = fs.String("rules", "", "JSON regression-rules file; violations exit 2")
		outPath     = fs.String("out", "", "write the full JSON report here ('-' = stdout)")
	)
	fs.Var(&targets, "target", "replay target as name=url[,url...]; extra urls are cluster-node fallbacks; repeat the flag for a twin-diff (max 2)")
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	if *logPath == "" || len(targets) == 0 {
		fmt.Fprintln(stderr, "sompi-replay: -log and at least one -target are required")
		fs.Usage()
		return harness.ExitUsage
	}

	var rules harness.Rules
	if *rulesPath != "" {
		var err error
		rules, err = harness.LoadRules(*rulesPath)
		if err != nil {
			fmt.Fprintf(stderr, "sompi-replay: %v\n", err)
			return harness.ExitUsage
		}
	}
	var extraIgnore []string
	for _, r := range strings.Split(*ignore, ",") {
		if r = strings.TrimSpace(r); r != "" {
			extraIgnore = append(extraIgnore, r)
		}
	}
	extraIgnore = append(extraIgnore, rules.Ignore...)

	records, err := harness.Load(*logPath)
	if err != nil {
		fmt.Fprintf(stderr, "sompi-replay: %v\n", err)
		return harness.ExitRuntime
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(stderr, "sompi-replay: %d records from %s against %d target(s), rate=%g concurrency=%d\n",
		len(records), *logPath, len(targets), *rate, *concurrency)
	rep, err := harness.Replay(ctx, records, harness.Options{
		Targets:     targets,
		Rate:        *rate,
		Concurrency: *concurrency,
		Timeout:     *timeout,
		Ignore:      extraIgnore,
	})
	if err != nil {
		fmt.Fprintf(stderr, "sompi-replay: %v\n", err)
		return harness.ExitRuntime
	}
	// A replay where no record ever produced a response is a runtime
	// failure, not a gradeable run.
	if rep.TransportErrors >= rep.Records*len(targets) {
		fmt.Fprintf(stderr, "sompi-replay: no target answered any of the %d records\n", rep.Records)
		return harness.ExitRuntime
	}

	printSummary(stderr, rep)
	if *outPath != "" {
		if err := writeReport(*outPath, stdout, rep); err != nil {
			fmt.Fprintf(stderr, "sompi-replay: %v\n", err)
			return harness.ExitRuntime
		}
	}

	if *rulesPath != "" {
		if violations := rules.Evaluate(rep); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(stderr, "sompi-replay: RULE VIOLATION %s\n", v)
			}
			return harness.ExitRules
		}
		fmt.Fprintf(stderr, "sompi-replay: all rules in %s passed\n", *rulesPath)
	}
	if rep.FieldDiffs > 0 || rep.PlanDiffs > 0 {
		return harness.ExitDiffs
	}
	return harness.ExitOK
}

// printSummary renders the human-facing per-endpoint table.
func printSummary(w *os.File, rep *harness.Report) {
	fmt.Fprintf(w, "sompi-replay: %d records in %.2fs", rep.Records, rep.WallSeconds)
	if len(rep.Targets) == 2 {
		fmt.Fprintf(w, "; twin-diff: %d field-diff records, %d plan-byte diffs", rep.FieldDiffs, rep.PlanDiffs)
	}
	fmt.Fprintf(w, "; %d transport errors\n", rep.TransportErrors)
	for _, t := range rep.Targets {
		names := make([]string, 0, len(t.Endpoints))
		for name := range t.Endpoints {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ep := t.Endpoints[name]
			fmt.Fprintf(w, "  %-8s %-11s n=%-5d err=%-3d p50=%7.2fms p90=%7.2fms p99=%7.2fms qps=%.1f",
				t.Name, name, ep.Requests, ep.Errors, ep.P50MS, ep.P90MS, ep.P99MS, ep.QPS)
			if ep.CacheLookups > 0 {
				fmt.Fprintf(w, " cache=%d/%d", ep.CacheHits, ep.CacheLookups)
			}
			fmt.Fprintln(w)
		}
	}
	for _, s := range rep.DiffSamples {
		fmt.Fprintf(w, "  diff seq=%d %s %s\n", s.Seq, s.Endpoint, s.Path)
		for _, f := range s.Fields {
			fmt.Fprintf(w, "    %s: %s != %s\n", f.Path, f.A, f.B)
		}
	}
}

func writeReport(path string, stdout *os.File, rep *harness.Report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
