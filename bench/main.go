// Command bench is the repository's one performance ledger: five named
// workloads driven at a live sompid child process, five gated end-to-end
// metrics per workload, and a per-layer ladder measured from outside the
// program. README.md in this directory is the metric catalog.
//
// Usage (from the repository root):
//
//	go run -C bench .                       the whole suite, every metric by name
//	go run -C bench . -trace                the suite's traced pass only (span files)
//	go run -C bench . -selfcheck            the suite twice (A/A) against its own bounds
//	go run -C bench . -quick                in-process smoke over all five generators
//	go run -C bench . -dump W -o DIR        write workload W's capture as harness NDJSON
//	go run -C bench . -manifest             print BENCHMARK.json from the catalog
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1
//	                                        one driver run: the last stdout line is the result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

func main() { os.Exit(realMain()) }

// bareTrace rewrites a -trace that carries no value into -trace=1. The
// driver always passes `--trace 0|1`; a person types `-trace` alone.
func bareTrace(args []string) []string {
	out := append([]string(nil), args...)
	for i, a := range out {
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(out) || strings.HasPrefix(out[i+1], "-") {
			out[i] = "-trace=1"
		}
	}
	return out
}

func realMain() int {
	var (
		trace     = flag.Int("trace", 0, "driver mode: 1 prints the per-layer metrics instead of the end-to-end ones; suite mode: run the traced pass only")
		workload  = flag.String("workload", "", "run this one workload in driver mode ("+strings.Join(workloadNames, ", ")+")")
		seed      = flag.Uint64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", runSeconds, "seconds one run measures")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice back to back and fail if any end-to-end metric moved by more than its own bound")
		quick     = flag.Bool("quick", false, "in-process smoke over all five generators, no child process")
		dump      = flag.String("dump", "", "write this workload's capture as harness.Record NDJSON and exit")
		out       = flag.String("o", "", "output directory for -dump")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json generated from the catalog and exit")
		dataRoot  = flag.String("data-root", "", "directory for the durable workloads' data dirs (default bench/out); on tmpfs the children run with -fsync=true")
	)
	flag.CommandLine.Parse(bareTrace(os.Args[1:]))
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace wants 0 or 1, got %d\n", *trace)
		return 2
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	if *printMan {
		m := buildManifest()
		if err := m.validate(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		b, _ := json.MarshalIndent(m, "", "  ")
		fmt.Println(string(b))
		return 0
	}
	if *dump != "" {
		if err := dumpCapture(*dump, *seed, *seconds, *out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *quick {
		if err := quickSmoke(*seed, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench: quick:", err)
			return 1
		}
		return 0
	}

	e, err := newEnv(*dataRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Children die and scratch directories go on every exit path: normal
	// return, error, SIGINT/SIGTERM (here) and SIGKILL of the benchmark
	// itself (the children's parent-death signal).
	defer e.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()
	if err := e.build(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	switch {
	case *workload != "":
		return e.driverRun(*workload, *seed, *seconds, *trace == 1)
	case *selfcheck:
		return e.selfcheck(*seed, *seconds)
	default:
		return e.suite(*seed, *seconds, *trace == 1)
	}
}

// driverMetric is one value of the driver's result line.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the last line of a driver run's standard output.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

// driverRun is `--workload W --seed N --seconds S --trace T`: one run,
// progress on stderr, the result object as the last line of stdout.
// --trace 0 reports every end-to-end metric of BENCHMARK.json; --trace 1
// spends the same seconds on a shorter child-process run, the in-process
// ladder and the probes, and reports every per-layer metric.
func (e *env) driverRun(name string, seed uint64, seconds float64, traced bool) int {
	if !knownWorkload(name) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", name, strings.Join(workloadNames, ", "))
		return 2
	}
	out := driverResult{Metrics: make(map[string]driverMetric)}
	if !traced {
		res, err := e.run(name, seed, seconds, fullRunPasses)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printRun(os.Stderr, res)
		out.Correct, out.Attempted, out.Failed = res.Correct, res.Attempted, res.Failed
		for _, m := range e2eCatalog {
			s, ok := res.E2E[m.Name]
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: %s did not report %s\n", name, m.Name)
				return 1
			}
			out.Metrics[m.Name] = driverMetric{Value: s.Median, Unit: m.Unit}
		}
	} else {
		layers, res, err := e.tracedRun(name, seed, seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printRun(os.Stderr, res)
		out.Correct, out.Attempted, out.Failed = res.Correct, res.Attempted, res.Failed
		for _, m := range layerCatalog {
			out.Metrics[m.Name] = driverMetric{Value: layers[m.Name], Unit: m.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The result line is the answer, right or wrong: the driver reads
	// `correct` from it, so the exit code stays 0 once it is printed.
	fmt.Println(string(b))
	return 0
}
