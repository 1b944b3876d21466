package main

import (
	"strings"
	"testing"
)

// TestRunOutput pins the simulated block of the example's output at its
// default size. The native block that follows prints wall times, so only
// its first and last lines are checked.
func TestRunOutput(t *testing.T) {
	const sim = `simulated machine (p=16, n=262144):
  total 11109708 cycles (27.77 ms at 400 MHz)
  communication 9590967 cycles; QSM estimate 9928875 (ratio 1.04)
  skews: largest bucket B=23327 (ideal 16384), remote fraction r=0.941

native runtime (p=16 goroutines):
`
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.HasPrefix(got, sim) {
		t.Errorf("simulated block differs:\n got:\n%s\nwant:\n%s", got, sim)
	}
	if !strings.HasSuffix(got, "  both backends produced the correct sorted output\n") {
		t.Errorf("native block does not end with the correctness line:\n%s", got)
	}
}
