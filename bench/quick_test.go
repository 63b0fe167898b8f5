package main

import (
	"bytes"
	"testing"
	"time"
)

// TestQuickSmoke drives all five generators at an in-process sompid:
// every record answered, version vectors and checked plans right.
func TestQuickSmoke(t *testing.T) {
	start := time.Now()
	var out bytes.Buffer
	if err := quickSmoke(5, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	// About 3 s; the race detector slows the optimizer some fifteenfold,
	// so the duration is reported, not asserted.
	t.Logf("quick smoke took %v\n%s", time.Since(start), out.String())
}
