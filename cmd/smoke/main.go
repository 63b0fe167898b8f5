// Command smoke runs the process-level gates behind `make check`, one
// stage per argument, in order:
//
//	smoke serve           library ≡ served plan, trace/explain/metrics,
//	                      SIGKILL crash recovery, sustained batched ingest
//	smoke replay          capture → twin-diff mem vs disk → rules gate →
//	                      full-speed sustained load
//	smoke cluster         2-node ownership split, single ≡ cluster
//	                      twin-diff, SIGKILL failover
//
// `smoke serve replay cluster` builds sompid and sompi-replay once for
// all three. Every stage boots real processes through internal/harness
// (proc.go, expo.go); nothing here is configurable — the stages are the
// contract. Run it from the repository root.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"sompi/internal/harness"
	"sompi/internal/serve"
)

// Every sompid a stage boots sees this market, so the library twin in
// the serve stage and the reference node in the cluster stage can
// rebuild it bit for bit.
const (
	smokeHours = 240
	smokeSeed  = 7
)

type stage struct {
	name string
	run  func(*env) error
}

var stages = []stage{
	{"serve", serveStage},
	{"replay", replayStage},
	{"cluster", clusterStage},
}

// env is what the stages share: one scratch directory and the binaries
// built into it, each at most once per run.
type env struct {
	tmp   string
	stage string
	bins  map[string]string
}

// bin builds pkg on first use and returns the binary's path.
func (e *env) bin(pkg string) (string, error) {
	if path, ok := e.bins[pkg]; ok {
		return path, nil
	}
	path, err := harness.Build(e.tmp, pkg)
	if err == nil {
		e.bins[pkg] = path
	}
	return path, err
}

// dir returns a fresh path under the scratch directory, namespaced by
// stage so stages sharing one run never see each other's files.
func (e *env) dir(name string) string {
	return filepath.Join(e.tmp, e.stage+"-"+name)
}

// say prints one progress line under the running stage's name.
func (e *env) say(format string, args ...any) {
	fmt.Printf("smoke %s: %s\n", e.stage, fmt.Sprintf(format, args...))
}

// startSompid boots the built sompid on an ephemeral port at the smoke
// market.
func (e *env) startSompid(extra ...string) (*harness.Proc, error) {
	return e.startSompidAt("", extra...)
}

// startSompidAt is startSompid on a reserved address (cluster nodes).
func (e *env) startSompidAt(addr string, extra ...string) (*harness.Proc, error) {
	sompid, err := e.bin("./cmd/sompid")
	if err != nil {
		return nil, err
	}
	args := append([]string{"-hours", fmt.Sprint(smokeHours), "-seed", fmt.Sprint(smokeSeed)}, extra...)
	return harness.Start(sompid, addr, args...)
}

// smokePlan is the deterministic plan request the stages share.
func smokePlan() serve.PlanRequest {
	return serve.PlanRequest{
		App: "BT", DeadlineHours: 60,
		Kappa: 2, GridLevels: 3, MaxGroups: 3,
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(names []string) int {
	var picked []int
	for _, name := range names {
		picked = append(picked, slices.IndexFunc(stages, func(st stage) bool { return st.name == name }))
	}
	if len(picked) == 0 || slices.Contains(picked, -1) {
		all := make([]string, len(stages))
		for i, st := range stages {
			all[i] = st.name
		}
		fmt.Fprintf(os.Stderr, "usage: smoke STAGE...   (stages: %s)\n", strings.Join(all, " "))
		return 2
	}
	tmp, err := os.MkdirTemp("", "sompi-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e := &env{tmp: tmp, bins: map[string]string{}}
	for _, i := range picked {
		e.stage = stages[i].name
		if err := stages[i].run(e); err != nil {
			fmt.Fprintf(os.Stderr, "smoke %s: FAIL: %v\n", e.stage, err)
			return 1
		}
		e.say("PASS")
	}
	return 0
}
