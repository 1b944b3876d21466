package main

import (
	"strings"
	"testing"
)

// TestRunOutput pins the example's whole output: one reduction's cycles on
// the QSM library, the QSM-on-BSP emulation and the LogP tree.
func TestRunOutput(t *testing.T) {
	const want = `global sum of 1..16 on 16 processors (want 136):

  QSM library (bulk-synchronous):       187449 cycles
  QSM emulated on BSP (bridging):       187433 cycles
  LogP binomial tree (fine-grained):      9600 cycles

the emulation tracks the native library (the bridging result);
the fine-grained tree wins on one-word payloads (Section 2.1's trade-off).
`
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Errorf("output differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}
