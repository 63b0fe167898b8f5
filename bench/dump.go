package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"sompi/internal/harness"
)

// dumpPasses is how many measured passes a dump of a closed-loop
// workload holds.
const dumpPasses = 5

// capture renders a workload's generated traffic as harness.Record
// NDJSON, one capture per fresh sompid: a closed-loop workload yields
// one per pass (warm-up, then that pass; dumpPasses of them), an open-loop workload a
// single one (warm-up, then seconds of schedule). Equal arguments give
// byte-identical captures.
func capture(name string, seed uint64, seconds float64) ([][]byte, error) {
	if !knownWorkload(name) {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	g := newGenerator(name, seed)
	warm := g.warmup()
	encode := func(sets ...[]rec) ([]byte, error) {
		var buf bytes.Buffer
		for _, set := range sets {
			for i := range set {
				line, err := harness.EncodeRecord(set[i].Record)
				if err != nil {
					return nil, err
				}
				buf.Write(line)
			}
		}
		return buf.Bytes(), nil
	}
	if openLoopWorkload(name) {
		b, err := encode(warm, g.schedule(seconds))
		return [][]byte{b}, err
	}
	var out [][]byte
	for p := 0; p < dumpPasses; p++ {
		b, err := encode(warm, g.pass(p))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// dumpCapture writes capture()'s output under dir, one directory per
// fresh sompid in the layout harness.Load reads:
// dir/pass-<i>/capture-000000.ndjson. Replaying pass i with
// sompi-replay against a sompid booted with -hours 336 -seed 2015 sends
// exactly what the benchmark sends.
func dumpCapture(name string, seed uint64, seconds float64, dir string) error {
	if dir == "" {
		return fmt.Errorf("-dump needs -o DIR")
	}
	captures, err := capture(name, seed, seconds)
	if err != nil {
		return err
	}
	for i, b := range captures {
		sub := filepath.Join(dir, fmt.Sprintf("pass-%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		path := filepath.Join(sub, "capture-000000.ndjson")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("%s\t%d bytes\n", path, len(b))
	}
	return nil
}
